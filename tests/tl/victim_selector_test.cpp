// Edge cases of tl::VictimSelector on a bare chip, each checked in index
// mode and in reference mode: a scan where every positive block is
// ineligible, a cost-benefit tie, the tie-breaks of DFTL's cross-class
// most-invalid fallback, and the per-invalid-count fallback index (an
// ineligible top count, counts across a mask word boundary, a block that
// re-enters at a new count).
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

/// Programs `invalid` invalid pages followed by `valid` valid ones into the
/// (erased) block `b`.
void fill_block(nand::NandChip& chip, BlockIndex b, PageIndex invalid, PageIndex valid) {
  for (PageIndex p = 0; p < invalid + valid; ++p) {
    EXPECT_EQ(chip.program_page(Ppa{b, p}, p + 1, nand::SpareArea{0, p + 1, 0}), Status::ok);
    if (p < invalid) {
      EXPECT_EQ(chip.invalidate_page(Ppa{b, p}), Status::ok);
    }
  }
}

std::unique_ptr<nand::NandChip> make_chip(const std::vector<BlockShape>& shapes,
                                          PageIndex pages = kPages) {
  nand::NandConfig cc;
  cc.geometry = FlashGeometry{.block_count = kBlocks, .pages_per_block = pages,
                              .page_size_bytes = 512};
  cc.timing = default_timing(CellType::slc_small_block);
  auto chip = std::make_unique<nand::NandChip>(cc);
  for (BlockIndex b = 0; b < shapes.size(); ++b) {
    for (std::uint32_t e = 0; e < shapes[b].erases; ++e) {
      EXPECT_EQ(chip->erase_block(b), Status::ok);
    }
    fill_block(*chip, b, shapes[b].invalid, shapes[b].valid);
  }
  return chip;
}

/// A selector that has seen every block's page counts.
VictimSelector make_selector(bool reference, double cost_weight, PageIndex pages = kPages) {
  VictimSelector selector(kBlocks, pages, cost_weight, reference);
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

TEST(VictimSelector, FallbackSkipsAnIneligibleTopCount) {
  // Counts: 3 at blocks 1 and 4, 2 at blocks 2 (5 erases) and 6 (1 erase),
  // 1 at block 3.
  auto chip = make_chip({{}, {.invalid = 3, .valid = 1}, {.erases = 5, .invalid = 2},
                         {.invalid = 1, .valid = 3}, {.invalid = 3}, {},
                         {.erases = 1, .invalid = 2, .valid = 1}});
  for (const bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "reference scan" : "victim index");
    VictimSelector selector = make_selector(reference, 10.0);
    EXPECT_EQ(selector.most_invalid(*chip, kAny), 1u);
    // Every block at count 3 is ineligible: the pick comes from count 2.
    EXPECT_EQ(selector.most_invalid(*chip, [](BlockIndex b) { return b != 1 && b != 4; }), 6u);
    // Counts 3 and 2 are both out of reach: count 1.
    EXPECT_EQ(selector.most_invalid(*chip, [](BlockIndex b) { return b == 3 || b == 0; }), 3u);
    EXPECT_EQ(selector.most_invalid(*chip, [](BlockIndex b) { return b == 0 || b == 5; }),
              kInvalidBlock);
  }
}

TEST(VictimSelector, FallbackCrossesAMaskWordBoundary) {
  // 128 pages per block: counts 63, 64 and 65 sit on both sides of the
  // boundary between the first and second 64-bit word of the count mask.
  constexpr PageIndex kBig = 128;
  auto chip = make_chip({{}, {.invalid = 63, .valid = 65}, {}, {.invalid = 65, .valid = 1},
                         {}, {.invalid = 64, .valid = 10}, {.invalid = 63}},
                        kBig);
  for (const bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "reference scan" : "victim index");
    VictimSelector selector = make_selector(reference, 10.0, kBig);
    EXPECT_EQ(selector.most_invalid(*chip, kAny), 3u);
    EXPECT_EQ(selector.most_invalid(*chip, [](BlockIndex b) { return b != 3; }), 5u);
    EXPECT_EQ(selector.most_invalid(*chip, [](BlockIndex b) { return b != 3 && b != 5; }), 1u);
    EXPECT_EQ(selector.most_invalid(*chip, [](BlockIndex b) { return b == 6; }), 6u);
  }
}

TEST(VictimSelector, ErasedBlockReentersAtItsNewCount) {
  for (const bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "reference scan" : "victim index");
    auto chip = make_chip({{}, {}, {.invalid = 3, .valid = 1}, {}, {},
                           {.invalid = 2, .valid = 2}, {.erases = 2, .invalid = 1, .valid = 3}});
    VictimSelector selector = make_selector(reference, 10.0);
    EXPECT_EQ(selector.most_invalid(*chip, kAny), 2u);
    // Collected: erased (now 1 erase), out of the index, then written again
    // with a single invalid page.
    selector.remove(2);
    ASSERT_EQ(chip->erase_block(2), Status::ok);
    EXPECT_EQ(selector.most_invalid(*chip, kAny), 5u);
    fill_block(*chip, 2, 1, 0);
    selector.mark_dirty(2);
    EXPECT_EQ(selector.most_invalid(*chip, kAny), 5u);
    // At count 1 it ties with block 6 and wins on fewer erases.
    EXPECT_EQ(selector.most_invalid(*chip, [](BlockIndex b) { return b != 5; }), 2u);
  }
}

}  // namespace
}  // namespace swl::tl
