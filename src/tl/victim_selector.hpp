// The Cleaner's victim selection (Section 5.1), shared by every translation
// layer: one VictimSelector per block class answers the three queries a GC
// round asks — the first positive-score block along the cyclic scan, the
// most-invalid fallback, and the cost-benefit-age pick.
//
// Each query is answered from the class's tl::VictimIndex, or — with
// `reference_scan` — by probing every block's live counts on the chip. Both
// modes pick the same victims in the same order and leave the scan cursor in
// the same place; the reference mode is the oracle the victim-scan property
// tests and the differential fuzzer compare against.
//
// The caller's `eligible(BlockIndex) -> bool` predicate carries the layer's
// own exclusions (its write frontiers, unowned blocks, the other block
// class). The index mode applies it to indexed blocks only; the reference
// mode to every block that is not retired. Pooled blocks need no exclusion:
// they hold no pages, so they never score positive and never hold an
// invalid page. Predicates are template parameters, so every query inlines.
#ifndef SWL_TL_VICTIM_SELECTOR_HPP
#define SWL_TL_VICTIM_SELECTOR_HPP


#include "core/types.hpp"
#include "nand/nand_chip.hpp"
#include "tl/gc_policy.hpp"
#include "tl/victim_index.hpp"

namespace swl::tl {

class VictimSelector {
 public:
  VictimSelector(BlockIndex block_count, PageIndex pages_per_block, double cost_weight,
                 bool reference_scan)
      : scanner_(block_count),
        index_(block_count, pages_per_block, cost_weight),
        cost_weight_(cost_weight),
        reference_(reference_scan) {}

  /// Marks `b` for re-scoring after a program (failed ones included: they
  /// consume the page) or an invalidation. One bit-op on the write fast path.
  void mark_dirty(BlockIndex b) {
    if (!reference_) index_.mark_dirty(b);
  }

  /// Forgets `b` until its next mark_dirty(): erased back into the pool,
  /// released by a fold, or retired (never mark a retired block again).
  void remove(BlockIndex b) {
    if (!reference_) index_.remove(b);
  }

  /// First eligible block with a positive greedy score at or after the scan
  /// cursor, cyclically, and moves the cursor just past it. kInvalidBlock,
  /// with the cursor unmoved, when no eligible block scores positive.
  template <typename Eligible>
  BlockIndex first_positive(const nand::NandChip& chip, Eligible&& eligible) {
    if (reference_) {
      return scanner_.next([&](BlockIndex b) {
        return !chip.is_retired(b) && eligible(b) &&
               gc_score(chip.valid_page_count(b), chip.invalid_page_count(b), cost_weight_) > 0.0;
      });
    }
    index_.flush(chip);
    if (!index_.any_positive()) return kInvalidBlock;
    // Hop over the positive blocks from the cursor instead of probing every
    // block; coming back to the first hop means every one was ineligible.
    const BlockIndex blocks = chip.geometry().block_count;
    const auto first = static_cast<BlockIndex>(index_.next_positive(scanner_.cursor()));
    BlockIndex b = first;
    while (!eligible(b)) {
      b = static_cast<BlockIndex>(index_.next_positive(b + 1 == blocks ? 0 : b + 1));
      if (b == first) return kInvalidBlock;
    }
    scanner_.advance_past(b);
    return b;
  }

  /// The eligible block first in FallbackPick's order (most invalid pages,
  /// then fewest erases, then lowest index); kInvalidBlock when no eligible
  /// block holds an invalid page.
  template <typename Eligible>
  [[nodiscard]] BlockIndex most_invalid(const nand::NandChip& chip, Eligible&& eligible) {
    if (!reference_) {
      index_.flush(chip);
      return index_.most_invalid(chip, eligible);
    }
    FallbackPick pick;
    for (BlockIndex b = 0; b < chip.geometry().block_count; ++b) {
      if (!chip.is_retired(b)) pick.offer(chip, b, eligible);
    }
    return pick.block;
  }

  /// The eligible block with an invalid page that maximizes
  /// cost_benefit_score(valid, pages, age(b)), ties to the lowest index;
  /// kInvalidBlock when there is none.
  template <typename Eligible, typename Age>
  [[nodiscard]] BlockIndex best_cost_benefit(const nand::NandChip& chip, Eligible&& eligible,
                                             Age&& age) {
    const PageIndex pages = chip.geometry().pages_per_block;
    BlockIndex best = kInvalidBlock;
    double best_score = 0.0;
    const auto offer = [&](BlockIndex b) {
      if (!eligible(b)) return;
      const double score = cost_benefit_score(chip.valid_page_count(b), pages, age(b));
      if (best == kInvalidBlock || score > best_score) {
        best = b;
        best_score = score;
      }
    };
    if (reference_) {
      for (BlockIndex b = 0; b < chip.geometry().block_count; ++b) {
        if (!chip.is_retired(b) && chip.invalid_page_count(b) > 0) offer(b);
      }
    } else {
      index_.flush(chip);
      index_.for_each_candidate(offer);
    }
    return best;
  }

 private:
  CyclicVictimScanner scanner_;
  VictimIndex index_;
  double cost_weight_;
  bool reference_;
};

}  // namespace swl::tl

#endif  // SWL_TL_VICTIM_SELECTOR_HPP
