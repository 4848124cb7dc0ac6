// NAND flash chip simulator.
//
// Models the device semantics the paper's mechanisms depend on:
//   - a chip is an array of blocks; a block is an array of pages;
//   - reads and programs operate on pages, erases on whole blocks;
//   - a page is program-once between erases (out-of-place updates);
//   - each block sustains a bounded number of erases (endurance), after which
//     it is worn out — the chip records the *first failure time*;
//   - every operation costs simulated time on an attached SimClock.
//
// Page payloads are modelled as 64-bit content tokens (cheap enough to keep
// for every page, so data-integrity is checked end-to-end in tests) plus the
// spare-area metadata of Figure 2(a).
//
// Garbage collection moves live pages with copy_pages, a batched copy-back:
// each op reads a source page, checks that it still holds the LBA the caller
// expects, and programs it into a destination page with the caller's spare
// sequence and role, carrying the token and any stored bytes. One op costs
// exactly what a read followed by program_page costs (same ticks, counters,
// failure draws and power-loss consultations, in the same order); the batch
// only saves the translation layer a second pass over the source pages.
//
// The per-page primitives (read/program/copy/invalidate and the state
// accessors) are defined inline below the class: translation layers call
// them tens of millions of times per simulated year, and cross-TU calls would
// dominate the replay hot path. program_page and copy_pages share one inline
// program body. Block erase is O(1) via a per-block epoch — see erase_block
// in the .cpp.
#ifndef SWL_NAND_NAND_CHIP_HPP
#define SWL_NAND_NAND_CHIP_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/clock.hpp"
#include "core/contracts.hpp"
#include "core/geometry.hpp"
#include "core/rng.hpp"
#include "core/status.hpp"
#include "core/sync.hpp"
#include "core/types.hpp"
#include "nand/power_loss.hpp"
#include "nand/spare_area.hpp"

namespace swl::nand {

/// Media-error injection model. Program failures become more likely as a
/// block wears (probability = program_fail_p + wear_factor * wear_ratio,
/// where wear_ratio = erase_count / endurance); erase failures retire the
/// block outright. All zeros (the default) disables injection.
struct FailureInjection {
  double program_fail_p = 0.0;
  double erase_fail_p = 0.0;
  double wear_factor = 0.0;
  std::uint64_t seed = 0xBAD5EEDULL;

  [[nodiscard]] bool enabled() const noexcept {
    return program_fail_p > 0.0 || erase_fail_p > 0.0 || wear_factor > 0.0;
  }
};

/// Chip construction parameters.
struct NandConfig {
  FlashGeometry geometry;
  NandTiming timing;
  FailureInjection failures;
  /// When true, a block whose erase count reaches the endurance limit is
  /// retired: further erases fail with Status::block_worn_out. When false the
  /// chip keeps operating (the paper's Table 4 runs 10 simulated years "even
  /// though some blocks were worn out") but the first failure is recorded
  /// either way.
  bool retire_worn_blocks = false;
  /// Enforce ascending-page-order programming within a block (a real MLC
  /// constraint; FTL obeys it, NFTL's primary blocks do not, hence optional).
  bool enforce_sequential_program = false;
  /// Store full page payload bytes in addition to the 64-bit content token.
  /// Needed by byte-accurate clients (the block-device byte API and the FAT
  /// file system); costs page_size bytes of host RAM per programmed page.
  bool store_payload_bytes = false;
};

/// Moment the first block reached its endurance limit.
struct FailureEvent {
  BlockIndex block = kInvalidBlock;
  SimTime time_us = 0;
  std::uint64_t total_erases = 0;
};

/// Result of a page read. Zero-copy: no payload bytes are copied or
/// allocated by read_page — `data` is a view into the chip's own storage.
struct PageReadResult {
  Status status = Status::ok;
  std::uint64_t payload_token = 0;
  SpareArea spare;
  PageState state = PageState::free;
  /// Page payload bytes; empty unless the chip stores payload bytes and the
  /// page was programmed with them. Points into the block's payload arena:
  /// valid (and unchanging) until the block is erased. A completed erase
  /// hands the arena to another block, so a view held across an erase reads
  /// that block's bytes (AddressSanitizer builds poison a recycled arena
  /// until it is reused, so such a view faults there). Every holder copies
  /// or compares the bytes before the next erase can run:
  ///   - Dftl::tpage_image and its users effective_image, translate_tpage,
  ///     decode_tpage and the mount reconcile's memcmp;
  ///   - the source view inside NandChip::copy_pages;
  ///   - Ftl::read_bytes, Nftl::read_bytes and Dftl::read_bytes, which copy
  ///     into the caller's buffer — the only way the bdev and fs byte paths
  ///     reach page bytes.
  std::span<const std::uint8_t> data;
};

/// Counters of everything the chip has done since construction.
struct NandCounters {
  std::uint64_t reads = 0;
  std::uint64_t programs = 0;
  std::uint64_t erases = 0;
  std::uint64_t program_failures = 0;
  std::uint64_t erase_failures = 0;
  /// Blocks that have been given a payload arena, at most one per block
  /// (lazily, on the block's first byte-carrying program). Arenas are
  /// recycled at erase, so heap allocations never exceed this count.
  /// Token-only workloads keep this at zero — the regression guard for the
  /// allocation-free simulator hot path.
  std::uint64_t payload_arena_allocations = 0;
};

/// Spare area an erased (never re-programmed) page reads back as.
inline constexpr SpareArea kErasedSpare{};

/// One page move of NandChip::copy_pages: `src` must be programmed and carry
/// spare LBA `lba`; `dst` is programmed with the source's token and bytes
/// under spare {lba, sequence, role}.
struct CopyOp {
  Ppa src;
  Ppa dst;
  Lba lba = kInvalidLba;
  std::uint64_t sequence = 0;
  PageRole role = PageRole::data;
};

/// Whether the first op of a copy_pages batch reads its source.
enum class CopySource : std::uint8_t {
  /// Every op reads its source page (read timing and counter).
  read,
  /// The first op's source is still in the page register from a copy whose
  /// program failed, so it is not read (nor charged) again — a retry to the
  /// next destination page.
  buffered,
};

/// Outcome of copy_pages: the batch stops at the first op that is not ok.
struct [[nodiscard]] CopyResult {
  /// Ops attempted, the failing one included (== ops.size() when all
  /// succeeded).
  std::size_t attempted = 0;
  /// Status of the last op attempted.
  Status status = Status::ok;
};

class NandChip {
 public:
  /// Observer invoked after every successful block erase with the block index
  /// and its new erase count — this is the hook SWL-BETUpdate attaches to.
  using EraseObserver = std::function<void(BlockIndex, std::uint32_t)>;

  /// Constructs an erased chip. `clock` may be null (no timing accounted).
  explicit NandChip(NandConfig config, SimClock* clock = nullptr);

  // -- primitive operations (the MTD layer of Figure 1) --------------------

  /// Reads a page. Succeeds on programmed pages (valid or invalid — the MTD
  /// layer does not know logical validity); Status::page_not_programmed on
  /// free pages.
  [[nodiscard]] PageReadResult read_page(Ppa addr) const;

  /// Lean read for token-only clients (the replay hot path): identical
  /// timing and counter effects to read_page, but returns just the payload
  /// token with no result-struct assembly. The page must be programmed
  /// (asserted) — callers inspect spare()/page_state() first, which cost
  /// nothing.
  [[nodiscard]] std::uint64_t read_token(Ppa addr) const;

  /// Programs a free page with payload + spare. Fails with
  /// Status::page_already_programmed on a non-free page, with
  /// Status::bad_block on retired blocks, and with Status::program_failed on
  /// an injected media error (the page is then consumed — marked invalid —
  /// exactly as firmware treats a failed program). `data`, when non-empty,
  /// must be exactly one page of bytes and is stored verbatim when the chip
  /// was configured with store_payload_bytes (ignored otherwise).
  Status program_page(Ppa addr, std::uint64_t payload_token, const SpareArea& spare,
                      std::span<const std::uint8_t> data = {});

  /// Copy-back: runs `ops` in order, each a read of op.src (skipped for the
  /// first op with CopySource::buffered) followed by a program of op.dst
  /// with exactly program_page's effects and failure modes. Throws
  /// InvariantError when a source is not programmed or its spare LBA is not
  /// op.lba, and PreconditionError on an out-of-range address; stops at the
  /// first op whose program is not Status::ok.
  [[nodiscard]] CopyResult copy_pages(std::span<const CopyOp> ops,
                                      CopySource source = CopySource::read);

  /// Erases a block: all pages become free, erase count increments, the
  /// erase observers fire. Fails on retired blocks; an injected erase
  /// failure (Status::erase_failed) retires the block permanently.
  Status erase_block(BlockIndex block);

  // -- logical page state, maintained for the translation layer ------------

  /// Marks a valid page invalid (an out-of-place update superseded it).
  /// The payload remains readable, as on a real chip.
  Status invalidate_page(Ppa addr);

  /// Simulates a power loss: the valid/invalid distinction is firmware
  /// knowledge, not chip state, so after a crash every programmed page reads
  /// back as "valid" until the translation layer's mount scan re-derives
  /// which versions are current (see Ftl::mount / Nftl::mount). Erase
  /// counts, payloads, spare areas and retirement survive, like real flash.
  void forget_logical_state();

  [[nodiscard]] PageState page_state(Ppa addr) const;
  [[nodiscard]] const SpareArea& spare(Ppa addr) const;

  /// Live (valid) pages currently in `block`.
  [[nodiscard]] PageIndex valid_page_count(BlockIndex block) const;
  /// Programmed-but-superseded pages in `block`.
  [[nodiscard]] PageIndex invalid_page_count(BlockIndex block) const;
  /// Free pages remaining in `block`.
  [[nodiscard]] PageIndex free_page_count(BlockIndex block) const;

  // -- wear accounting ------------------------------------------------------

  [[nodiscard]] std::uint32_t erase_count(BlockIndex block) const;
  [[nodiscard]] bool is_worn_out(BlockIndex block) const;
  [[nodiscard]] bool is_retired(BlockIndex block) const;

  /// First time any block's erase count reached the endurance limit.
  [[nodiscard]] const std::optional<FailureEvent>& first_failure() const noexcept {
    return first_failure_;
  }

  /// Erase counts of all blocks (index == block number).
  [[nodiscard]] const std::vector<std::uint32_t>& erase_counts() const noexcept {
    return erase_counts_;
  }

  /// Registers `observer`; returns a token accepted by remove_erase_observer.
  /// [[nodiscard]]: dropping the token makes deregistration impossible — an
  /// observer owner that can die before the chip then leaves a dangling
  /// callback. Cast to void only when the observer provably outlives the chip.
  [[nodiscard]] std::size_t add_erase_observer(EraseObserver observer);

  /// Deregisters a previously registered observer (other tokens stay valid).
  /// An observer owner that dies before the chip MUST deregister — the chip
  /// would otherwise call into a dangling object on the next erase.
  void remove_erase_observer(std::size_t token);

  /// Rebinds the chip's thread-confinement check (see core/sync.hpp): a chip
  /// built on one thread and then handed to a single sweep-point worker calls
  /// this at the handoff. Debug builds assert every erase / observer-list
  /// mutation happens on the owning thread.
  void detach_owner_thread() noexcept { thread_checker_.detach(); }

  /// Attaches (or detaches, with nullptr) a power-loss hook. The hook is
  /// consulted before every page program and block erase; when it cuts
  /// power, the chip applies the torn result (see power_loss.hpp) and
  /// throws PowerLossError. Non-owning.
  void set_power_loss_hook(PowerLossHook* hook) noexcept {
    thread_checker_.check("NandChip::set_power_loss_hook");
    power_loss_hook_ = hook;
  }

  /// True when no failure injection is configured and no power-loss hook is
  /// attached — programs on free pages of non-retired blocks cannot fail.
  /// Translation layers key their non-branching write fast paths off this.
  [[nodiscard]] bool fast_media() const noexcept {
    return !inject_failures_ && power_loss_hook_ == nullptr;
  }

  // -- misc -----------------------------------------------------------------

  [[nodiscard]] const FlashGeometry& geometry() const noexcept { return config_.geometry; }
  [[nodiscard]] const NandTiming& timing() const noexcept { return config_.timing; }
  [[nodiscard]] const NandConfig& config() const noexcept { return config_; }
  [[nodiscard]] const NandCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] SimClock* clock() const noexcept { return clock_; }

 private:
  struct Page {
    std::uint64_t payload = 0;
    SpareArea spare;
    PageState state = PageState::free;
    bool has_data = false;  // payload bytes live in the block's arena
    /// Block-epoch stamp: the page's content is current only while this
    /// matches the block's epoch; a stale page reads back as erased (free).
    std::uint32_t epoch = 0;
  };

  struct Block {
    /// Payload-byte arena (pages_per_block × page_size bytes), shared by all
    /// pages of the block. Attached lazily on the first byte-carrying
    /// program, preferring the most recently freed arena, and handed back to
    /// free_arenas_ by a completed erase. The token-only hot path never
    /// touches it; the byte path keeps only blocks that hold bytes in arenas,
    /// and reuses memory that is still in cache.
    std::unique_ptr<std::uint8_t[]> data;
    PageIndex valid = 0;
    PageIndex invalid = 0;
    PageIndex next_program = 0;  // for sequential-program enforcement
    bool retired = false;
    bool had_arena = false;  // counted once in payload_arena_allocations
    /// Bumped by every erase; pages with an older epoch are logically free.
    /// Makes erase O(1) instead of O(pages); the next program of a page
    /// lazily resets it. (A stale page could only alias after 2^32 erases
    /// of one block — far beyond any simulated endurance.)
    std::uint32_t epoch = 0;
  };

  void check_ppa(Ppa addr) const {
    SWL_REQUIRE(addr.block < config_.geometry.block_count, "block index out of range");
    SWL_REQUIRE(addr.page < config_.geometry.pages_per_block, "page index out of range");
  }
  void check_block(BlockIndex block) const {
    SWL_REQUIRE(block < config_.geometry.block_count, "block index out of range");
  }
  void tick(std::uint64_t us) const {
    if (clock_ != nullptr) clock_->advance_us(us);
  }
  /// Consults the power-loss hook (proceed when none is attached).
  [[nodiscard]] CrashDecision consult_power_loss(CrashOp op) {
    return power_loss_hook_ != nullptr ? power_loss_hook_->on_operation(op)
                                       : CrashDecision::proceed;
  }
  /// True when the page's stored content survives the block's last erase.
  [[nodiscard]] static bool page_current(const Block& block, const Page& page) noexcept {
    return page.epoch == block.epoch;
  }
  /// Page storage is one flat chip-level array indexed block * stride + page
  /// (see pages_ below); these are the only places that compute the index.
  [[nodiscard]] Page& page_at(BlockIndex block, PageIndex page) noexcept {
    return pages_[static_cast<std::size_t>(block) * page_stride_ + page];
  }
  [[nodiscard]] const Page& page_at(BlockIndex block, PageIndex page) const noexcept {
    return pages_[static_cast<std::size_t>(block) * page_stride_ + page];
  }
  /// Turns a page into unreadable garbage (a failed or torn program): the
  /// cells were partially written, fail ECC, and cannot be re-programmed
  /// before the next erase of the block.
  void consume_page(BlockIndex block, PageIndex page);
  /// The arena slice backing `page` of `block` (arena must exist).
  [[nodiscard]] std::span<std::uint8_t> arena_slice(const Block& block, PageIndex page) const;
  [[nodiscard]] bool inject_program_failure(BlockIndex block);
  [[nodiscard]] bool inject_erase_failure();
  /// The page-program body shared by program_page and copy_pages: every
  /// check and effect after address validation.
  Status program_checked(Ppa addr, std::uint64_t payload_token, const SpareArea& spare,
                         std::span<const std::uint8_t> data);
  /// Cold tail of program_page: the byte-storing path.
  void store_page_bytes(Block& block, Page& page, PageIndex page_index,
                        std::span<const std::uint8_t> data);
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return page_stride_ * config_.geometry.page_size_bytes;
  }

  NandConfig config_;
  SimClock* clock_;
  PowerLossHook* power_loss_hook_ = nullptr;
  std::vector<Block> blocks_;
  /// All pages of the chip in one flat array (block-major, stride
  /// page_stride_). One contiguous allocation keeps sequential page visits —
  /// GC copy loops, spare-area scans — on adjacent cache lines instead of
  /// chasing a per-block vector indirection.
  std::vector<Page> pages_;
  std::size_t page_stride_ = 0;  // == geometry.pages_per_block, cached
  std::vector<std::uint32_t> erase_counts_;
  // Thread-confined (not mutex-guarded): one chip belongs to one sweep
  // point / one thread. thread_checker_ turns a cross-thread erase or
  // observer registration into an immediate failure in debug builds; the
  // sweep's determinism tests and the TSan CI job guard the release path.
  std::vector<EraseObserver> erase_observers_;
  ThreadChecker thread_checker_;
  // mutable: reads are logically const but still count and cost time
  mutable NandCounters counters_;
  std::optional<FailureEvent> first_failure_;
  Rng failure_rng_;
  bool inject_failures_ = false;  // config_.failures.enabled(), cached
  /// Arenas of erased blocks, most recently freed last (LIFO: the next
  /// byte-carrying program of an arena-less block takes the hottest one).
  std::vector<std::unique_ptr<std::uint8_t[]>> free_arenas_;
};

// -- inline hot path --------------------------------------------------------

inline PageReadResult NandChip::read_page(Ppa addr) const {
  check_ppa(addr);
  tick(config_.timing.read_page_us);
  ++counters_.reads;
  const Block& block = blocks_[addr.block];
  const Page& page = page_at(addr.block, addr.page);
  PageReadResult result;
  if (!page_current(block, page) || page.state == PageState::free) {
    result.status = Status::page_not_programmed;
    return result;
  }
  result.state = page.state;
  result.payload_token = page.payload;
  result.spare = page.spare;
  if (page.has_data) {
    // Zero-copy: view into the block's arena, nothing allocated or copied.
    result.data = arena_slice(block, addr.page);
  }
  return result;
}

inline std::uint64_t NandChip::read_token(Ppa addr) const {
  check_ppa(addr);
  tick(config_.timing.read_page_us);
  ++counters_.reads;
  const Block& block = blocks_[addr.block];
  const Page& page = page_at(addr.block, addr.page);
  SWL_ASSERT(page_current(block, page) && page.state != PageState::free,
             "read_token of an unprogrammed page");
  return page.payload;
}

inline Status NandChip::program_page(Ppa addr, std::uint64_t payload_token,
                                     const SpareArea& spare, std::span<const std::uint8_t> data) {
  // Same confinement contract as erase_block: programs mutate block/page
  // state and counters_ without synchronization. Compiled out under NDEBUG,
  // so the release hot path is unchanged.
  thread_checker_.check("NandChip::program_page");
  SWL_REQUIRE(data.empty() || data.size() == config_.geometry.page_size_bytes,
              "payload bytes must be exactly one page");
  check_ppa(addr);
  return program_checked(addr, payload_token, spare, data);
}

inline CopyResult NandChip::copy_pages(std::span<const CopyOp> ops, CopySource source) {
  thread_checker_.check("NandChip::copy_pages");
  bool charge_read = source == CopySource::read;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const CopyOp& op = ops[i];
    check_ppa(op.src);
    check_ppa(op.dst);
    if (charge_read) {
      tick(config_.timing.read_page_us);
      ++counters_.reads;
    }
    charge_read = true;
    const Block& src_block = blocks_[op.src.block];
    const Page& src = page_at(op.src.block, op.src.page);
    SWL_ASSERT(page_current(src_block, src) && src.state != PageState::free,
               "copy source is not programmed");
    SWL_ASSERT(src.spare.lba == op.lba, "copy source's spare LBA is not the expected one");
    // A programmed source is current, so the destination (a different,
    // programmable page) never aliases it. The byte view stays valid: only
    // an erase detaches an arena, the source block is not erased here, and
    // a destination that needs an arena takes one freed by an earlier erase.
    const Status st = program_checked(
        op.dst, src.payload, SpareArea{op.lba, op.sequence, 0, op.role},
        src.has_data ? std::span<const std::uint8_t>(arena_slice(src_block, op.src.page))
                     : std::span<const std::uint8_t>{});
    if (st != Status::ok) return {i + 1, st};
  }
  return {ops.size(), Status::ok};
}

inline Status NandChip::program_checked(Ppa addr, std::uint64_t payload_token,
                                        const SpareArea& spare,
                                        std::span<const std::uint8_t> data) {
  Block& block = blocks_[addr.block];
  if (block.retired) return Status::bad_block;
  Page& page = page_at(addr.block, addr.page);
  if (!page_current(block, page)) {
    // Lazily apply the last erase of the block to this page.
    page = Page{};
    page.epoch = block.epoch;
  }
  if (page.state != PageState::free) return Status::page_already_programmed;
  if (config_.enforce_sequential_program && addr.page != block.next_program) {
    return Status::page_already_programmed;  // out-of-order program is rejected
  }
  if (power_loss_hook_ != nullptr) {
    switch (consult_power_loss(CrashOp::program)) {
      case CrashDecision::proceed:
        break;
      case CrashDecision::cut_before:
        throw PowerLossError{};
      case CrashDecision::cut_during:
        // Torn page: the cells were partially written before power died.
        consume_page(addr.block, addr.page);
        throw PowerLossError{};
    }
  }
  tick(config_.timing.program_page_us);
  ++counters_.programs;
  if (inject_failures_ && inject_program_failure(addr.block)) {
    // The page is consumed: its cells were partially programmed and cannot
    // be trusted or re-programmed before the next erase. The garbage it
    // holds fails ECC, which the spare-area scan recognizes by the
    // kInvalidLba marker.
    ++counters_.program_failures;
    consume_page(addr.block, addr.page);
    return Status::program_failed;
  }
  page.payload = payload_token;
  page.spare = spare;
  page.spare.ecc = compute_ecc(payload_token);
  if (config_.store_payload_bytes && !data.empty()) {
    store_page_bytes(block, page, addr.page, data);
  }
  page.state = PageState::valid;
  ++block.valid;
  if (addr.page >= block.next_program) block.next_program = addr.page + 1;
  return Status::ok;
}

inline Status NandChip::invalidate_page(Ppa addr) {
  check_ppa(addr);
  Block& block = blocks_[addr.block];
  Page& page = page_at(addr.block, addr.page);
  if (!page_current(block, page) || page.state == PageState::free) {
    return Status::page_not_programmed;
  }
  if (page.state == PageState::valid) {
    page.state = PageState::invalid;
    --block.valid;
    ++block.invalid;
  }
  return Status::ok;
}

inline PageState NandChip::page_state(Ppa addr) const {
  check_ppa(addr);
  const Block& block = blocks_[addr.block];
  const Page& page = page_at(addr.block, addr.page);
  return page_current(block, page) ? page.state : PageState::free;
}

inline const SpareArea& NandChip::spare(Ppa addr) const {
  check_ppa(addr);
  const Block& block = blocks_[addr.block];
  const Page& page = page_at(addr.block, addr.page);
  return page_current(block, page) ? page.spare : kErasedSpare;
}

inline PageIndex NandChip::valid_page_count(BlockIndex block) const {
  check_block(block);
  return blocks_[block].valid;
}

inline PageIndex NandChip::invalid_page_count(BlockIndex block) const {
  check_block(block);
  return blocks_[block].invalid;
}

inline PageIndex NandChip::free_page_count(BlockIndex block) const {
  check_block(block);
  return config_.geometry.pages_per_block - blocks_[block].valid - blocks_[block].invalid;
}

inline std::uint32_t NandChip::erase_count(BlockIndex block) const {
  check_block(block);
  return erase_counts_[block];
}

inline bool NandChip::is_worn_out(BlockIndex block) const {
  check_block(block);
  return erase_counts_[block] >= config_.timing.endurance;
}

inline bool NandChip::is_retired(BlockIndex block) const {
  check_block(block);
  return blocks_[block].retired;
}

}  // namespace swl::nand

#endif  // SWL_NAND_NAND_CHIP_HPP
