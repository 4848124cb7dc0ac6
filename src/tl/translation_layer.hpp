// Common interface of the Flash Translation Layer drivers (Figure 1).
//
// FTL (page mapping), NFTL (block mapping) and DFTL (page mapping with a
// flash-resident map) derive from TranslationLayer, which provides:
//   - the host-facing read/write page API;
//   - erase / live-copy accounting split by cause (regular GC vs SWL), the
//     quantities behind the paper's Figures 6 and 7;
//   - SW Leveler attachment: the leveler's SWL-BETUpdate is wired to the
//     chip's erase observer and SWL-Procedure is given this layer's Cleaner.
#ifndef SWL_TL_TRANSLATION_LAYER_HPP
#define SWL_TL_TRANSLATION_LAYER_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/status.hpp"
#include "core/types.hpp"
#include "nand/nand_chip.hpp"
#include "swl/cleaner.hpp"
#include "swl/leveler_base.hpp"

namespace swl::tl {

/// Work counters, split by what caused the work. "gc" covers everything the
/// layer does on its own (garbage collection, NFTL folds); "swl" covers work
/// performed while serving an SWL-Procedure collection request.
struct TlCounters {
  std::uint64_t host_writes = 0;
  std::uint64_t host_reads = 0;
  std::uint64_t gc_erases = 0;
  std::uint64_t swl_erases = 0;
  std::uint64_t gc_live_copies = 0;
  std::uint64_t swl_live_copies = 0;
  /// Host writes completed through the registered non-virtual fast path
  /// (write_record); always <= host_writes. Diagnostic only — fast and slow
  /// paths are bit-identical — surfaced so the simulator can report the
  /// fast-path hit rate.
  std::uint64_t fast_path_writes = 0;
  /// Flash reads of mapping metadata (DFTL translation-page fetches); zero
  /// for layers whose map lives entirely in RAM.
  std::uint64_t map_reads = 0;
  /// Flash programs of mapping metadata (translation-page write-backs, GC
  /// read-modify-writes and relocations, mount recovery rewrites). The ratio
  /// map_writes / host_writes is the mapping-write amplification.
  std::uint64_t map_writes = 0;

  [[nodiscard]] std::uint64_t total_erases() const noexcept { return gc_erases + swl_erases; }
  [[nodiscard]] std::uint64_t total_live_copies() const noexcept {
    return gc_live_copies + swl_live_copies;
  }
  [[nodiscard]] double map_write_amplification() const noexcept {
    return host_writes == 0 ? 0.0
                            : static_cast<double>(map_writes) / static_cast<double>(host_writes);
  }
};

class TranslationLayer : public wear::Cleaner {
 public:
  explicit TranslationLayer(nand::NandChip& chip);
  /// Deregisters this layer's (and its leveler's) erase observers — the chip
  /// outlives its layers, and a left-behind observer would dangle.
  ~TranslationLayer() override;

  TranslationLayer(const TranslationLayer&) = delete;
  TranslationLayer& operator=(const TranslationLayer&) = delete;

  /// Writes one logical page (out-of-place). Requires lba < lba_count().
  virtual Status write(Lba lba, std::uint64_t payload_token) = 0;

  /// Byte-accurate variant: stores a full page of data alongside the token
  /// (requires a chip configured with store_payload_bytes; `data` must be
  /// exactly one page).
  virtual Status write(Lba lba, std::uint64_t payload_token,
                       std::span<const std::uint8_t> data) = 0;

  /// Reads the current content of one logical page.
  virtual Status read(Lba lba, std::uint64_t* payload_token) = 0;

  // -- record-replay entry points (the simulator hot path) ------------------
  // Non-virtual dispatch through function pointers the derived layer
  // registers (set_fast_paths). write_record first attempts the layer's fast
  // path — the common case with no GC trigger, no new-block allocation and
  // no fold — and falls back to the virtual write() when the write needs the
  // full machinery. Results are bit-identical either way; only the dispatch
  // cost differs.

  Status write_record(Lba lba, std::uint64_t payload_token) {
    if (fast_write_ != nullptr && fast_write_(*this, lba, payload_token)) {
      ++counters_.fast_path_writes;
      return Status::ok;
    }
    return write(lba, payload_token);
  }

  Status read_record(Lba lba, std::uint64_t* payload_token) {
    if (fast_read_ != nullptr) return fast_read_(*this, lba, payload_token);
    return read(lba, payload_token);
  }

  /// Byte-accurate variant: copies the page's stored bytes into `out`
  /// (exactly one page); pages written without bytes read back as zeros.
  virtual Status read_bytes(Lba lba, std::span<std::uint8_t> out) = 0;

  /// Logical pages this layer exports.
  [[nodiscard]] virtual Lba lba_count() const noexcept = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Validates the layer's internal consistency against the chip (version
  /// index vs. valid pages, pool emptiness, ownership tables); throws
  /// InvariantError on violation. O(pages) — meant for tests and the
  /// crash-recovery harness, not the hot path.
  virtual void check_invariants() const = 0;

  /// Attaches a wear-leveling policy (the paper's SwLeveler or any other
  /// wear::Leveler): every subsequent chip erase feeds its update hook
  /// (SWL-BETUpdate for the SW Leveler), and after each host write the
  /// policy runs when its trigger condition holds. At most one leveler.
  void attach_leveler(std::unique_ptr<wear::Leveler> leveler);

  [[nodiscard]] wear::Leveler* leveler() noexcept { return leveler_.get(); }
  [[nodiscard]] const wear::Leveler* leveler() const noexcept { return leveler_.get(); }

  [[nodiscard]] nand::NandChip& chip() noexcept { return chip_; }
  [[nodiscard]] const nand::NandChip& chip() const noexcept { return chip_; }

  [[nodiscard]] const TlCounters& counters() const noexcept { return counters_; }

  // wear::Cleaner: wraps the implementation so that all erases / copies done
  // on behalf of the SW Leveler are attributed to it.
  void collect_blocks(BlockIndex first, BlockIndex count) final;

 protected:
  /// A fast write attempt: returns true when it completed the write (having
  /// done *exactly* what write() would have done), false to fall back to the
  /// virtual slow path without having mutated anything.
  using FastWriteFn = bool (*)(TranslationLayer&, Lba, std::uint64_t);
  /// A fast read: must behave exactly like read() (reads have no slow-path
  /// fallback — the registered function handles every case itself).
  using FastReadFn = Status (*)(TranslationLayer&, Lba, std::uint64_t*);

  /// Registers the derived layer's record-replay fast paths (either may be
  /// null to keep virtual dispatch for that operation).
  void set_fast_paths(FastWriteFn fast_write, FastReadFn fast_read) noexcept {
    fast_write_ = fast_write;
    fast_read_ = fast_read;
  }

  /// Implementation of the Cleaner request (garbage collect specific blocks).
  virtual void do_collect_blocks(BlockIndex first, BlockIndex count) = 0;

  /// Implementations call this for every live page they relocate (or once
  /// with the size of a relocated batch).
  void count_live_copy(std::uint64_t copies = 1) noexcept {
    if (serving_swl_) {
      counters_.swl_live_copies += copies;
    } else {
      counters_.gc_live_copies += copies;
    }
  }

  /// Implementations call this once per successful host write, *after* the
  /// write completed; it also gives the SW Leveler a chance to run.
  void finish_host_write() {
    ++counters_.host_writes;
    if (leveler_ != nullptr && leveler_->needs_leveling()) {
      leveler_->run(*this);
    }
  }

  /// Implementations call this once per successful host read.
  void finish_host_read() noexcept { ++counters_.host_reads; }

  /// Implementations call this for every flash read of mapping metadata.
  void count_map_read() noexcept { ++counters_.map_reads; }

  /// Implementations call this for every flash program of mapping metadata.
  void count_map_write() noexcept { ++counters_.map_writes; }

  /// Mount-scan election, newest sequence wins: `addr`, programmed with
  /// sequence `seq`, replaces `winner` when there is none yet or it is
  /// older; the losing page is invalidated on the chip.
  void keep_newest(Ppa& winner, std::uint64_t& winner_seq, Ppa addr, std::uint64_t seq);

 private:
  nand::NandChip& chip_;
  std::unique_ptr<wear::Leveler> leveler_;
  std::vector<std::size_t> observer_tokens_;
  TlCounters counters_;
  bool serving_swl_ = false;
  FastWriteFn fast_write_ = nullptr;
  FastReadFn fast_read_ = nullptr;
};

}  // namespace swl::tl

#endif  // SWL_TL_TRANSLATION_LAYER_HPP
