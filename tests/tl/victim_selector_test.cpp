// Edge cases of tl::VictimSelector on a bare chip, each checked in index
// mode and in reference mode: a scan where every positive block is
// ineligible, a cost-benefit tie, and the tie-breaks of DFTL's cross-class
// most-invalid fallback.
#include "tl/victim_selector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nand/nand_chip.hpp"

namespace swl::tl {
namespace {

constexpr BlockIndex kBlocks = 8;
constexpr PageIndex kPages = 4;

/// What one block holds: its erase count, then `invalid` invalid pages
/// followed by `valid` valid ones.
struct BlockShape {
  std::uint32_t erases = 0;
  PageIndex invalid = 0;
  PageIndex valid = 0;
};

std::unique_ptr<nand::NandChip> make_chip(const std::vector<BlockShape>& shapes) {
  nand::NandConfig cc;
  cc.geometry = FlashGeometry{.block_count = kBlocks, .pages_per_block = kPages,
                              .page_size_bytes = 512};
  cc.timing = default_timing(CellType::slc_small_block);
  auto chip = std::make_unique<nand::NandChip>(cc);
  std::uint64_t token = 1;
  for (BlockIndex b = 0; b < shapes.size(); ++b) {
    for (std::uint32_t e = 0; e < shapes[b].erases; ++e) {
      EXPECT_EQ(chip->erase_block(b), Status::ok);
    }
    for (PageIndex p = 0; p < shapes[b].invalid + shapes[b].valid; ++p) {
      EXPECT_EQ(chip->program_page(Ppa{b, p}, token, nand::SpareArea{0, token, 0}), Status::ok);
      ++token;
      if (p < shapes[b].invalid) {
        EXPECT_EQ(chip->invalidate_page(Ppa{b, p}), Status::ok);
      }
    }
  }
  return chip;
}

/// A selector that has seen every block's page counts.
VictimSelector make_selector(bool reference, double cost_weight) {
  VictimSelector selector(kBlocks, kPages, cost_weight, reference);
  for (BlockIndex b = 0; b < kBlocks; ++b) selector.mark_dirty(b);
  return selector;
}

const auto kAny = [](BlockIndex) { return true; };

TEST(VictimSelector, FullWrapFindsNothingAndLeavesTheCursor) {
  // Blocks 2 and 5 score positive (3 invalid vs 1 valid); block 0 is full of
  // valid data and scores negative.
  auto chip = make_chip({{.valid = 4}, {}, {.invalid = 3, .valid = 1}, {}, {},
                         {.invalid = 3, .valid = 1}});
  for (const bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "reference scan" : "victim index");
    VictimSelector selector = make_selector(reference, 1.0);
    EXPECT_EQ(selector.first_positive(*chip, kAny), 2u);  // cursor now just past 2
    const auto neither = [](BlockIndex b) { return b != 2 && b != 5; };
    EXPECT_EQ(selector.first_positive(*chip, neither), kInvalidBlock);
    // The fruitless full wrap left the cursor past 2, so the scan resumes
    // at 5 and then wraps back to 2.
    EXPECT_EQ(selector.first_positive(*chip, kAny), 5u);
    EXPECT_EQ(selector.first_positive(*chip, kAny), 2u);
  }
}

TEST(VictimSelector, CostBenefitTieGoesToTheLowestIndex) {
  // Blocks 1 and 4 score the same at equal age; block 6 holds more valid
  // data and scores lower; block 3 has no invalid page and is never picked.
  auto chip = make_chip({{}, {.invalid = 2, .valid = 2}, {}, {.valid = 4},
                         {.invalid = 2, .valid = 2}, {}, {.invalid = 1, .valid = 3}});
  const auto age = [](BlockIndex) { return 10.0; };
  for (const bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "reference scan" : "victim index");
    VictimSelector selector = make_selector(reference, 1.0);
    EXPECT_EQ(selector.best_cost_benefit(*chip, kAny, age), 1u);
    EXPECT_EQ(selector.best_cost_benefit(*chip, [](BlockIndex b) { return b != 1; }, age), 4u);
    EXPECT_EQ(selector.best_cost_benefit(*chip, [](BlockIndex b) { return b == 3; }, age),
              kInvalidBlock);
  }
}

/// DFTL's cross-class fallback: blocks 0-3 form the data class, 4-7 the
/// translation class, each with its own selector; the two class picks
/// compete in FallbackPick's order.
BlockIndex cross_class_fallback(const nand::NandChip& chip, bool reference) {
  // A cost weight this heavy leaves no block positive: only the fallback
  // can pick.
  VictimSelector data = make_selector(reference, 10.0);
  VictimSelector trans = make_selector(reference, 10.0);
  const auto in_data = [](BlockIndex x) { return x < 4; };
  const auto in_trans = [](BlockIndex x) { return x >= 4; };
  EXPECT_EQ(data.first_positive(chip, in_data), kInvalidBlock);
  FallbackPick pick;
  for (const BlockIndex b :
       {data.most_invalid(chip, in_data), trans.most_invalid(chip, in_trans)}) {
    if (b != kInvalidBlock) pick.offer(chip, b);
  }
  return pick.block;
}

TEST(VictimSelector, CrossClassFallbackBreaksTiesByErasesThenIndex) {
  // More invalid pages win regardless of wear or class.
  auto more_invalid = make_chip({{}, {.erases = 5, .invalid = 3, .valid = 1}, {}, {}, {}, {},
                                 {.invalid = 2, .valid = 2}});
  // Equal invalid counts: the translation block wins on fewer erases.
  auto fewer_erases = make_chip({{}, {.erases = 3, .invalid = 2, .valid = 2}, {}, {}, {},
                                 {.erases = 1, .invalid = 2, .valid = 2}});
  // Equal invalid counts and erases, within and across the classes: the
  // lowest index wins.
  auto lower_index = make_chip({{}, {}, {.erases = 1, .invalid = 2, .valid = 2},
                                {.erases = 1, .invalid = 2, .valid = 2}, {},
                                {.erases = 1, .invalid = 2, .valid = 2}});
  for (const bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "reference scan" : "victim index");
    EXPECT_EQ(cross_class_fallback(*more_invalid, reference), 1u);
    EXPECT_EQ(cross_class_fallback(*fewer_erases, reference), 5u);
    EXPECT_EQ(cross_class_fallback(*lower_index, reference), 2u);
  }
}

}  // namespace
}  // namespace swl::tl
