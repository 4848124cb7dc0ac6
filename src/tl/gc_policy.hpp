// Garbage-collection victim selection — the greedy policy of Section 5.1.
//
// "The erasing of a block with each valid page resulted in one unit of
// recycling cost, and that with each invalid page generated one unit of
// benefit. Block candidates for recycling were picked up by a cyclic
// scanning process over flash memory if their weighted sum of cost and
// benefit was above zero."
#ifndef SWL_TL_GC_POLICY_HPP
#define SWL_TL_GC_POLICY_HPP

#include <cstdint>
#include <string_view>

#include "core/types.hpp"

namespace swl::tl {

/// Victim-selection flavor for garbage collection.
enum class VictimPolicy {
  /// The paper's policy: first block along a cyclic scan whose greedy score
  /// (benefit − weighted cost) is positive.
  greedy_cyclic,
  /// Cost-benefit with age (LFS-style, cited lineage [13]): pick the block
  /// maximizing age·(1−u)/2u where u is the valid-page utilization — favors
  /// recycling old, mostly-invalid blocks and leaves young hot blocks time
  /// to accumulate more invalid pages.
  cost_benefit_age,
};

[[nodiscard]] std::string_view to_string(VictimPolicy p) noexcept;

/// Greedy cost/benefit score of erasing a block: benefit (one unit per
/// invalid page) minus weighted cost (cost_weight units per valid page).
/// A block is a recycling candidate when its score is positive.
[[nodiscard]] constexpr double gc_score(PageIndex valid_pages, PageIndex invalid_pages,
                                        double cost_weight) noexcept {
  return static_cast<double>(invalid_pages) - cost_weight * static_cast<double>(valid_pages);
}

/// Free-block level below which garbage collection runs: `fraction` of all
/// `block_count` blocks, and never fewer than `min_free_blocks`.
[[nodiscard]] BlockIndex gc_trigger_level(double fraction, BlockIndex min_free_blocks,
                                          BlockIndex block_count) noexcept;

/// Cost-benefit-age score: age * (1 - u) / (2 * u) with u = valid / pages.
/// Fully valid blocks score 0 (nothing to gain); fully invalid blocks score
/// highest. Requires pages > 0 and valid <= pages; age >= 0.
[[nodiscard]] double cost_benefit_score(PageIndex valid_pages, PageIndex pages_per_block,
                                        double age) noexcept;

/// Stateful cyclic scanner over physical blocks: each call resumes where the
/// previous one stopped and returns the first block whose score (supplied by
/// the caller through a predicate) marks it as a candidate, or kInvalidBlock
/// after one full, fruitless cycle.
class CyclicVictimScanner {
 public:
  explicit CyclicVictimScanner(BlockIndex block_count);

  /// `is_candidate(BlockIndex) -> bool`. Scans at most one full cycle.
  template <typename Predicate>
  BlockIndex next(Predicate&& is_candidate) {
    for (BlockIndex step = 0; step < block_count_; ++step) {
      const BlockIndex block = cursor_;
      cursor_ = (cursor_ + 1 == block_count_) ? 0 : cursor_ + 1;
      if (is_candidate(block)) return block;
    }
    return kInvalidBlock;
  }

  [[nodiscard]] BlockIndex cursor() const noexcept { return cursor_; }

  /// Places the cursor just past `block`, exactly where next() leaves it
  /// after returning `block` as a candidate. Lets an index-accelerated
  /// selection (tl::VictimIndex) replicate the scan's cursor state without
  /// visiting the intermediate blocks.
  void advance_past(BlockIndex block) noexcept {
    cursor_ = (block + 1 == block_count_) ? 0 : block + 1;
  }

 private:
  BlockIndex block_count_;
  BlockIndex cursor_ = 0;
};

}  // namespace swl::tl

#endif  // SWL_TL_GC_POLICY_HPP
