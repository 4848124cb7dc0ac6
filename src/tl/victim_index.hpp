// Incrementally maintained GC victim-score index.
//
// The paper's Cleaner picks victims with a cyclic scan over every physical
// block (Section 5.1). On a steady-state device that scan is the dominant GC
// cost: most visits probe blocks whose score did not change since the last
// scan. VictimIndex caches what every greedy selection needs —
//   - which blocks currently have a positive greedy score (a bitmask scanned
//     word/SIMD-parallel via BitVec::next_set_cyclic),
//   - which blocks have any invalid page at all (the candidate mask that the
//     cost-benefit-age pick walks in ascending order), and
//   - for the most-invalid fallback, one block bitset per invalid-page count
//     plus a mask of the counts that hold any block. The fallback walks the
//     counts from the highest non-empty one down and offers only that
//     count's blocks, so it visits the handful of blocks tied at the top
//     instead of every candidate.
//
// Maintenance is write-cheap and query-lazy: every page-state transition
// (program, failed program, invalidation) just sets one bit in a dirty-block
// mask, and the next victim query flushes the dirty blocks in batch against
// the chip's live counts. A hot write frontier dirtied hundreds of times
// between GC rounds is re-scored once, and the replay fast path pays one
// bit-op per write instead of a score recomputation.
//
// An earlier revision kept a bucketed score heap (an intrusive list per
// invalid-page count) updated eagerly on every page-state change; random
// host overwrites moved some block between buckets on nearly every write —
// three pointer-chasing cache misses on the hot path — and it was dropped.
// The per-count bitsets here are buckets too, but no write moves them:
// flush() only ORs its dirty words into a re-file mask, and the fallback
// query re-files those blocks first, so a block dirtied many times between
// two fallback queries changes bucket at most once. Layers whose greedy scan
// nearly always finds a positive block (the page-mapping FTL) never pay for
// the buckets; NFTL, whose GC takes the fallback on ~98% of selections, pays
// for each re-file once.
//
// Exactness contract: positivity is the same tl::gc_score(...) > 0.0
// predicate the reference scan evaluates, precomputed into an integer
// threshold per valid-page count (exact because the score is monotone in the
// invalid count), so the cached answer is bit-identical for any cost weight
// (including negative ones). The fallback's per-count walk keeps
// FallbackPick's total order: every block at a higher count ranks first, so
// the first count holding an eligible block holds the pick. tl::VictimSelector
// keeps the reference scans (each layer's reference_victim_scan) as the
// oracle; the victim-scan property tests and the differential fuzzer pin the
// equivalence.
#ifndef SWL_TL_VICTIM_INDEX_HPP
#define SWL_TL_VICTIM_INDEX_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "core/bitvec.hpp"
#include "core/types.hpp"
#include "nand/nand_chip.hpp"
#include "tl/gc_policy.hpp"

namespace swl::tl {

/// Running most-invalid fallback pick (Section 5.1's dynamic wear leveling
/// under pressure): the offered block with the most invalid pages, ties to
/// the lowest erase count, then the lowest block index. Offer order does not
/// matter, so the index walk, the reference scans and DFTL's cross-class
/// pick all share this one total order.
struct FallbackPick {
  BlockIndex block = kInvalidBlock;
  PageIndex invalid = 0;
  std::uint32_t erases = 0;

  /// Keeps `b` when it ranks before the current pick and `eligible(b)`
  /// holds; blocks without an invalid page are never picked. The predicate
  /// runs last, so a walk over many candidates evaluates it only for the few
  /// that would become the pick.
  template <typename Eligible>
  void offer(const nand::NandChip& chip, BlockIndex b, Eligible&& eligible) {
    const PageIndex inv = chip.invalid_page_count(b);
    if (inv < invalid || inv == 0) return;  // no pick yet: invalid == 0
    const std::uint32_t e = chip.erase_count(b);
    if (inv == invalid && (e > erases || (e == erases && b > block))) return;
    if (!eligible(b)) return;
    block = b;
    invalid = inv;
    erases = e;
  }
  void offer(const nand::NandChip& chip, BlockIndex b) {
    offer(chip, b, [](BlockIndex) { return true; });
  }
};

class VictimIndex {
 public:
  /// An index over `block_count` blocks whose invalid counts range up to
  /// `pages_per_block`, scoring with `cost_weight` (see tl::gc_score).
  VictimIndex(BlockIndex block_count, PageIndex pages_per_block, double cost_weight);

  /// Marks `b` for re-scoring at the next flush(). Call after any operation
  /// that changes the block's valid/invalid counts: a program (successful or
  /// failed — a failed program consumes the page) or an invalidation.
  /// Inline, one bit-op: this runs once or twice per host write on the
  /// replay fast path. Never call for a retired block.
  void mark_dirty(BlockIndex b) { dirty_.set(b); }

  /// Re-scores every dirty block from the chip's current page counts. Must
  /// run before any query below; queries between mutations and flush() see
  /// stale state.
  void flush(const nand::NandChip& chip);

  /// Drops `b` from the index entirely. Call when the block leaves the
  /// candidate set terminally: erased back into the pool, retired, or
  /// released by a fold. (A later mark_dirty() re-admits it — except for
  /// retired blocks, which must never be marked again: their stale page
  /// counts would otherwise re-enter the index at the next flush.)
  void remove(BlockIndex b) {
    positive_.clear(b);
    candidate_.clear(b);
    dirty_.clear(b);
    refile_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    set_level(b, 0);
  }

  /// True when any block currently has a positive greedy score.
  [[nodiscard]] bool any_positive() const noexcept { return positive_.count() > 0; }

  /// First positive-score block at or after `start`, cyclically. Requires
  /// any_positive().
  [[nodiscard]] std::size_t next_positive(std::size_t start) const {
    return positive_.next_set_cyclic(start);
  }

  /// Calls `f(BlockIndex)` for every block with at least one invalid page,
  /// in ascending index order.
  template <typename F>
  void for_each_candidate(F&& f) const {
    for_each_set(candidate_.words().data(), candidate_.words().size(), f);
  }

  /// The most-invalid fallback victim among the blocks `eligible` accepts,
  /// in FallbackPick's total order. kInvalidBlock when no indexed block has
  /// an invalid page. First re-files the blocks flushed since the last call
  /// under their current invalid counts.
  template <typename Eligible>
  [[nodiscard]] BlockIndex most_invalid(const nand::NandChip& chip, Eligible&& eligible) {
    refile(chip);
    const std::vector<std::uint64_t>& counts = nonempty_.words();
    for (std::size_t wi = counts.size(); wi-- > 0;) {
      for (std::uint64_t w = counts[wi]; w != 0;) {
        const int bit = 63 - std::countl_zero(w);
        w &= ~(std::uint64_t{1} << bit);
        FallbackPick pick;
        for_each_set(level_words(wi * 64 + static_cast<std::size_t>(bit)), words_per_level_,
                     [&](BlockIndex b) { pick.offer(chip, b, eligible); });
        if (pick.block != kInvalidBlock) return pick.block;
      }
    }
    return kInvalidBlock;
  }
  [[nodiscard]] BlockIndex most_invalid(const nand::NandChip& chip) {
    return most_invalid(chip, [](BlockIndex) { return true; });
  }

 private:
  /// Calls `f(BlockIndex)` for every set bit of the `n` words at `words`,
  /// ascending.
  template <typename F>
  static void for_each_set(const std::uint64_t* words, std::size_t n, F&& f) {
    for (std::size_t wi = 0; wi < n; ++wi) {
      for (std::uint64_t w = words[wi]; w != 0; w &= w - 1) {
        f(static_cast<BlockIndex>(wi * 64 + static_cast<std::size_t>(std::countr_zero(w))));
      }
    }
  }

  /// The block bitset of invalid count `invalid`.
  [[nodiscard]] std::uint64_t* level_words(std::size_t invalid) noexcept {
    return by_invalid_.data() + invalid * words_per_level_;
  }

  /// Re-files every block of the re-file mask under its invalid count.
  void refile(const nand::NandChip& chip) {
    for (std::size_t wi = 0; wi < refile_.size(); ++wi) {
      for (std::uint64_t w = refile_[wi]; w != 0; w &= w - 1) {
        const auto b =
            static_cast<BlockIndex>(wi * 64 + static_cast<std::size_t>(std::countr_zero(w)));
        set_level(b, chip.invalid_page_count(b));
      }
      refile_[wi] = 0;
    }
  }

  /// Files `b` under invalid count `invalid` (0 = out of every per-count
  /// bitset).
  void set_level(BlockIndex b, PageIndex invalid) {
    const PageIndex old = level_[b];
    if (old == invalid) return;
    const std::size_t word = b / 64;
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    if (old != 0) {
      level_words(old)[word] &= ~bit;
      if (--level_size_[old] == 0) nonempty_.clear(old);
    }
    if (invalid != 0) {
      level_words(invalid)[word] |= bit;
      if (level_size_[invalid]++ == 0) nonempty_.set(invalid);
    }
    level_[b] = invalid;
  }

  /// Blocks mutated since the last flush().
  BitVec dirty_;
  /// Blocks whose gc_score(valid, invalid, cost_weight_) is > 0.
  BitVec positive_;
  /// Blocks with at least one invalid page (the cost-benefit candidate set).
  BitVec candidate_;
  /// Blocks flushed since the last fallback query (raw words: flush() ORs
  /// the dirty mask in word by word).
  std::vector<std::uint64_t> refile_;
  /// One block bitset per invalid count, count-major in one allocation
  /// (level_words): count i holds the blocks with exactly i invalid pages as
  /// of their last re-file (count 0 stays empty). level_size_[i] is its
  /// block count, nonempty_ bit i is set iff it is non-zero, and level_[b]
  /// is b's filed count (0 when not filed).
  std::size_t words_per_level_;
  std::vector<std::uint64_t> by_invalid_;
  std::vector<BlockIndex> level_size_;
  BitVec nonempty_;
  std::vector<PageIndex> level_;
  /// min_invalid_[v] = least invalid count scoring positive with v valid
  /// pages (pages_per_block + 1 when impossible); turns the double-valued
  /// score predicate into one integer compare at flush time.
  std::vector<PageIndex> min_invalid_;
  BlockIndex block_count_;
};

}  // namespace swl::tl

#endif  // SWL_TL_VICTIM_INDEX_HPP
