// CrashInjector unit tests: the crash-point numbering, and the torn-state
// semantics the chip applies when power is cut mid-operation.
#include "fault/crash_injector.hpp"

#include <gtest/gtest.h>

#include "nand/nand_chip.hpp"
#include "swl/snapshot.hpp"

namespace swl::fault {
namespace {

nand::NandChip make_chip() {
  nand::NandConfig cfg;
  cfg.geometry = {4, 4, 512};
  cfg.timing = default_timing(CellType::slc_small_block);
  return nand::NandChip(cfg);
}

TEST(CrashInjector, ProbeModeCountsEveryPersistentOperation) {
  CrashInjector probe;
  auto chip = make_chip();
  chip.set_power_loss_hook(&probe);
  wear::MemorySnapshotStore inner;
  CrashSnapshotStore store(inner, probe);

  ASSERT_EQ(chip.program_page({0, 0}, 1, nand::SpareArea{0, 1, 0}), Status::ok);
  ASSERT_EQ(chip.program_page({0, 1}, 2, nand::SpareArea{1, 2, 0}), Status::ok);
  ASSERT_EQ(store.write_slot(0, {1, 2, 3, 4}), Status::ok);
  ASSERT_EQ(chip.erase_block(0), Status::ok);

  EXPECT_EQ(probe.operations(), 4u);
  EXPECT_FALSE(probe.fired());
}

TEST(CrashInjector, CutBeforeProgramLeavesTheMediumUntouched) {
  CrashInjector injector(2 * 0);  // before the first operation
  auto chip = make_chip();
  chip.set_power_loss_hook(&injector);

  EXPECT_THROW((void)chip.program_page({1, 0}, 7, nand::SpareArea{5, 1, 0}),
               nand::PowerLossError);
  EXPECT_TRUE(injector.fired());
  EXPECT_EQ(injector.fired_op(), nand::CrashOp::program);
  EXPECT_EQ(chip.page_state({1, 0}), nand::PageState::free);
}

TEST(CrashInjector, CutDuringProgramLeavesATornPage) {
  CrashInjector injector(2 * 0 + 1);  // during the first operation
  auto chip = make_chip();
  chip.set_power_loss_hook(&injector);

  EXPECT_THROW((void)chip.program_page({1, 0}, 7, nand::SpareArea{5, 1, 0}),
               nand::PowerLossError);
  // The torn page is consumed: unreadable garbage (default spare, so any
  // mount scan sees an ECC failure) that cannot be re-programmed.
  EXPECT_EQ(chip.page_state({1, 0}), nand::PageState::invalid);
  EXPECT_EQ(chip.spare({1, 0}).lba, kInvalidLba);
  chip.set_power_loss_hook(nullptr);
  EXPECT_EQ(chip.program_page({1, 0}, 8, nand::SpareArea{5, 2, 0}),
            Status::page_already_programmed);
}

TEST(CrashInjector, CutDuringEraseLeavesGarbageAndNoCountedErase) {
  auto chip = make_chip();
  ASSERT_EQ(chip.program_page({2, 0}, 11, nand::SpareArea{0, 1, 0}), Status::ok);
  ASSERT_EQ(chip.program_page({2, 1}, 12, nand::SpareArea{1, 2, 0}), Status::ok);

  CrashInjector injector(2 * 0 + 1);  // during the erase (first hooked op)
  chip.set_power_loss_hook(&injector);
  int observed_erases = 0;
  (void)chip.add_erase_observer([&](BlockIndex, std::uint32_t) { ++observed_erases; });

  EXPECT_THROW((void)chip.erase_block(2), nand::PowerLossError);
  EXPECT_EQ(injector.fired_op(), nand::CrashOp::erase);
  // Partially erased: every page — including previously free ones — is
  // garbage, the erase count did not increment, no observer fired.
  EXPECT_EQ(chip.erase_count(2), 0u);
  EXPECT_EQ(observed_erases, 0);
  for (PageIndex p = 0; p < 4; ++p) {
    EXPECT_EQ(chip.page_state({2, p}), nand::PageState::invalid);
    EXPECT_EQ(chip.spare({2, p}).lba, kInvalidLba);
  }
  // A later (successful) erase fully restores the block.
  chip.set_power_loss_hook(nullptr);
  ASSERT_EQ(chip.erase_block(2), Status::ok);
  EXPECT_EQ(chip.erase_count(2), 1u);
  EXPECT_EQ(chip.free_page_count(2), 4u);
}

TEST(CrashInjector, CutBeforeEraseChangesNothing) {
  auto chip = make_chip();
  ASSERT_EQ(chip.program_page({3, 0}, 21, nand::SpareArea{9, 1, 0}), Status::ok);
  CrashInjector injector(2 * 0);
  chip.set_power_loss_hook(&injector);

  EXPECT_THROW((void)chip.erase_block(3), nand::PowerLossError);
  EXPECT_EQ(chip.erase_count(3), 0u);
  EXPECT_EQ(chip.page_state({3, 0}), nand::PageState::valid);
  EXPECT_EQ(chip.spare({3, 0}).lba, 9u);
}

TEST(CrashInjector, TornSnapshotWriteCommitsAnInvalidPrefix) {
  CrashInjector injector(2 * 0 + 1);
  wear::MemorySnapshotStore inner;
  ASSERT_EQ(inner.write_slot(0, {9, 9, 9}), Status::ok);  // previous content
  CrashSnapshotStore store(inner, injector);

  const auto bytes = wear::encode_snapshot(wear::Snapshot{.block_count = 8, .bet_words = {}}, 1);
  EXPECT_THROW((void)store.write_slot(0, bytes), nand::PowerLossError);
  EXPECT_EQ(injector.fired_op(), nand::CrashOp::snapshot_write);
  // The slot holds a truncated prefix that can never pass the checksum.
  const auto torn = inner.read_slot(0);
  EXPECT_EQ(torn.size(), bytes.size() / 2);
  wear::Snapshot out;
  std::uint64_t seq = 0;
  EXPECT_EQ(wear::decode_snapshot(torn, &out, &seq), Status::corrupt_snapshot);
}

TEST(CrashInjector, OneCountdownSpansChipAndSnapshotStore) {
  CrashInjector injector(2 * 1);  // cut before operation #1, whatever it is
  auto chip = make_chip();
  chip.set_power_loss_hook(&injector);
  wear::MemorySnapshotStore inner;
  CrashSnapshotStore store(inner, injector);

  ASSERT_EQ(chip.program_page({0, 0}, 1, nand::SpareArea{0, 1, 0}), Status::ok);  // op 0
  EXPECT_THROW((void)store.write_slot(0, {1, 2, 3, 4}), nand::PowerLossError);    // op 1
  EXPECT_EQ(injector.fired_op(), nand::CrashOp::snapshot_write);
  EXPECT_TRUE(inner.read_slot(0).empty());  // cut before: nothing committed
}

TEST(CrashInjector, FiresAtMostOnce) {
  CrashInjector injector(2 * 0);
  auto chip = make_chip();
  chip.set_power_loss_hook(&injector);
  EXPECT_THROW((void)chip.program_page({0, 0}, 1, nand::SpareArea{0, 1, 0}),
               nand::PowerLossError);
  // After firing, the injector lets the recovery path operate normally even
  // if the hook is still attached.
  EXPECT_EQ(chip.program_page({0, 0}, 1, nand::SpareArea{0, 1, 0}), Status::ok);
  EXPECT_EQ(injector.operations(), 2u);
}

}  // namespace
}  // namespace swl::fault
