// NFTL — the block-mapping Flash Translation Layer (Section 2.2, Fig. 2(b)).
//
// An LBA is split into a virtual block address (VBA = LBA / pages-per-block)
// and a block offset. Each VBA maps to a *primary* block; the first write to
// an offset lands on the page with that offset in the primary block.
// Overwrites go sequentially into the VBA's *replacement* block. When the
// replacement block fills up, the valid pages of the pair are merged (folded)
// into a freshly allocated primary block and both old blocks are erased.
// A fold moves the pair's live pages with one NandChip::copy_pages batch
// (one copy-back op per live offset, read and program in one pass over the
// sources); the op table doubles as the fold's commit table. Garbage
// collection folds the pair owning the victim block that the shared
// tl::VictimSelector picks among owned blocks (the greedy cyclic scan of
// Section 5.1, whose most-invalid fallback is answered from the index's
// per-invalid-count bitsets); the layer itself keeps the VBA tables, the
// fold and every erase. The SW Leveler drives the same fold machinery.
#ifndef SWL_NFTL_NFTL_HPP
#define SWL_NFTL_NFTL_HPP

#include <cstdint>
#include <vector>

#include "tl/free_block_pool.hpp"
#include "tl/gc_policy.hpp"
#include "tl/translation_layer.hpp"
#include "tl/victim_selector.hpp"

namespace swl::nftl {

struct NftlConfig {
  /// Virtual blocks exported to the host (lba_count = vba_count * pages per
  /// block). 0 = auto: 90% of physical blocks, leaving room for replacement
  /// blocks and folds.
  Vba vba_count = 0;
  /// Garbage collection runs while free blocks < this fraction of all blocks.
  double gc_trigger_fraction = 0.002;
  /// Absolute floor of free blocks kept regardless of the fraction (>= 2:
  /// a fold consumes one block before it releases two).
  BlockIndex min_free_blocks = 2;
  /// Weight of valid-page cost in the greedy victim score.
  double gc_cost_weight = 1.0;
  /// Free-block allocation policy. fifo reproduces the paper's baseline
  /// (dynamic wear leveling in the Cleaner only); coldest_first is the
  /// stronger allocation-side dynamic wear leveling ablation.
  tl::AllocPolicy alloc_policy = tl::AllocPolicy::fifo;
  /// GC victim selection: the paper's greedy cyclic scan, or LFS-style
  /// cost-benefit with age.
  tl::VictimPolicy victim_policy = tl::VictimPolicy::greedy_cyclic;
  /// Diagnostic: select GC victims with the reference scans — the two-pass
  /// cyclic scan + fallback probing every block's live counts — instead of
  /// the incrementally maintained tl::VictimIndex. Must select the same
  /// victims in the same order (pinned by the victim-scan property test and
  /// the differential fuzzer); never needed in production.
  bool reference_victim_scan = false;
};

class Nftl final : public tl::TranslationLayer {
 public:
  /// Fresh device: every block is expected to be erased.
  Nftl(nand::NandChip& chip, NftlConfig config);

  /// Mounts an existing flash image by scanning spare areas: blocks are
  /// classified by their recorded role (primary / replacement), duplicate
  /// primaries or replacements left behind by a crash mid-fold are resolved
  /// by sequence numbers (newest wins, stale blocks are erased back into the
  /// pool), the newest version of every LBA is re-derived and the sequence
  /// numbering resumes. Simulate a crash first with
  /// NandChip::forget_logical_state().
  [[nodiscard]] static std::unique_ptr<Nftl> mount(nand::NandChip& chip, NftlConfig config);

  Status write(Lba lba, std::uint64_t payload_token) override;
  Status write(Lba lba, std::uint64_t payload_token,
               std::span<const std::uint8_t> data) override;
  Status read(Lba lba, std::uint64_t* payload_token) override;
  Status read_bytes(Lba lba, std::span<std::uint8_t> out) override;

  [[nodiscard]] Lba lba_count() const noexcept override { return lba_count_; }
  [[nodiscard]] std::string_view name() const noexcept override { return "NFTL"; }

  // -- introspection (tests, experiments) -----------------------------------

  [[nodiscard]] Vba vba_count() const noexcept { return config_.vba_count; }
  [[nodiscard]] BlockIndex primary_block(Vba vba) const;
  [[nodiscard]] BlockIndex replacement_block(Vba vba) const;
  [[nodiscard]] std::size_t free_block_count() const noexcept { return pool_.size(); }
  [[nodiscard]] const NftlConfig& config() const noexcept { return config_; }

  /// Physical location of the current version of an LBA (kInvalidPpa when
  /// never written).
  [[nodiscard]] Ppa translate(Lba lba) const;

  /// Validates internal consistency; throws InvariantError on violation.
  /// Test helper — O(pages).
  void check_invariants() const override;

 protected:
  void do_collect_blocks(BlockIndex first, BlockIndex count) override;

 private:
  /// Formats (mount = false) or mounts an existing image (see mount()).
  Nftl(nand::NandChip& chip, NftlConfig config, bool mount);

  /// Shared constructor body (config normalization and validation).
  void init_config();

  /// Spare-area scan that rebuilds the block tables and version index.
  void rebuild_from_flash();
  /// Merges the valid pages of a VBA's primary/replacement pair into a fresh
  /// primary block and erases the old block(s) — both the "replacement block
  /// full" fold and the GC merge of the paper. Program failures abandon the
  /// fresh block and retry with another (bounded); false when every attempt
  /// failed (state is then unchanged).
  [[nodiscard]] bool fold(Vba vba);

  /// Allocates a block from the pool for `vba` (dynamic wear leveling).
  BlockIndex allocate_block(Vba vba);

  /// Returns an erased block to the pool and clears its ownership.
  void release_block(BlockIndex block);

  void maybe_gc();
  bool gc_once();
  bool gc_select_and_fold();

  /// Shared write path; `data` may be empty (token-only write).
  Status write_internal(Lba lba, std::uint64_t payload_token,
                        std::span<const std::uint8_t> data);

  /// Shared body of read() and the registered fast read.
  Status read_impl(Lba lba, std::uint64_t* payload_token);

  /// Record-replay fast paths (see TranslationLayer::set_fast_paths). The
  /// fast write handles the common case — fast media, pool above the GC
  /// trigger, mapped primary, a destination page available without an
  /// allocation or a fold — and bails to write() otherwise.
  static bool fast_write_thunk(tl::TranslationLayer& base, Lba lba, std::uint64_t payload_token);
  static Status fast_read_thunk(tl::TranslationLayer& base, Lba lba, std::uint64_t* payload_token);

  /// Programs `lba`'s payload into the next free page of the replacement
  /// block, allocating / folding as necessary and retrying past failed
  /// pages. Returns the page programmed, or kInvalidPpa when retries were
  /// exhausted (media-error storm).
  Ppa append_to_replacement(Vba vba, Lba lba, std::uint64_t payload_token,
                            std::span<const std::uint8_t> data);

  /// Per-VBA mapping state, one struct per virtual block so a write touches
  /// one cache line instead of three parallel arrays: the primary block, the
  /// replacement block (kInvalidBlock when absent) and the next free page in
  /// the replacement.
  struct VbaEntry {
    BlockIndex primary = kInvalidBlock;
    BlockIndex replacement = kInvalidBlock;
    PageIndex replacement_next = 0;
  };

  NftlConfig config_;
  Lba lba_count_ = 0;
  std::vector<VbaEntry> vmap_;  // per VBA
  std::vector<Vba> owner_;      // per physical block: owning VBA or kInvalidVba
  // Simulation-side read-acceleration index of each LBA's newest version;
  // a firmware implementation derives this from spare areas, which the
  // invariant checker verifies this index against.
  std::vector<Ppa> latest_;
  tl::FreeBlockPool pool_;
  tl::VictimSelector victims_;
  std::uint64_t write_sequence_ = 0;
  // Newest sequence number programmed into each block (age for the
  // cost-benefit victim policy).
  std::vector<std::uint64_t> last_write_seq_;
  // Free-block level below which GC runs (tl::gc_trigger_level).
  BlockIndex gc_trigger_ = 2;
  // The fold's copy-back batch, which doubles as its commit table (each op
  // carries the LBA and its new page); reused across folds, which never
  // re-enter themselves (release_block only fires erase observers, which
  // never fold).
  std::vector<nand::CopyOp> fold_ops_;

  static constexpr Vba kInvalidVba = static_cast<Vba>(-1);
};

}  // namespace swl::nftl

#endif  // SWL_NFTL_NFTL_HPP
