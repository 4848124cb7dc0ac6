#include "nand/nand_chip.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/contracts.hpp"
#include "core/rng.hpp"

namespace swl::nand {
namespace {

NandConfig small_config(std::uint32_t endurance = 100, bool retire = false) {
  NandConfig c;
  c.geometry = FlashGeometry{.block_count = 8, .pages_per_block = 4, .page_size_bytes = 2048};
  c.timing = default_timing(CellType::mlc_x2);
  c.timing.endurance = endurance;
  c.retire_worn_blocks = retire;
  return c;
}

TEST(NandChip, FreshChipIsErased) {
  NandChip chip(small_config());
  for (BlockIndex b = 0; b < 8; ++b) {
    EXPECT_EQ(chip.erase_count(b), 0u);
    EXPECT_EQ(chip.free_page_count(b), 4u);
    for (PageIndex p = 0; p < 4; ++p) {
      EXPECT_EQ(chip.page_state({b, p}), PageState::free);
    }
  }
}

TEST(NandChip, ProgramThenReadRoundTrips) {
  NandChip chip(small_config());
  const SpareArea spare{42, 7, 0};
  ASSERT_EQ(chip.program_page({1, 2}, 0xDEADBEEF, spare), Status::ok);
  const PageReadResult r = chip.read_page({1, 2});
  EXPECT_EQ(r.status, Status::ok);
  EXPECT_EQ(r.payload_token, 0xDEADBEEFu);
  EXPECT_EQ(r.spare.lba, 42u);
  EXPECT_EQ(r.spare.sequence, 7u);
  EXPECT_EQ(r.state, PageState::valid);
}

TEST(NandChip, EccIsComputedOnProgram) {
  NandChip chip(small_config());
  ASSERT_EQ(chip.program_page({0, 0}, 0x12345678ABCDEFULL, SpareArea{1, 1, 0}), Status::ok);
  EXPECT_EQ(chip.read_page({0, 0}).spare.ecc, compute_ecc(0x12345678ABCDEFULL));
}

TEST(NandChip, PageIsProgramOnce) {
  NandChip chip(small_config());
  ASSERT_EQ(chip.program_page({0, 0}, 1, SpareArea{}), Status::ok);
  EXPECT_EQ(chip.program_page({0, 0}, 2, SpareArea{}), Status::page_already_programmed);
  // original data is intact
  EXPECT_EQ(chip.read_page({0, 0}).payload_token, 1u);
}

TEST(NandChip, ReadOfFreePageFails) {
  NandChip chip(small_config());
  EXPECT_EQ(chip.read_page({3, 3}).status, Status::page_not_programmed);
}

TEST(NandChip, EraseFreesAllPagesAndCounts) {
  NandChip chip(small_config());
  for (PageIndex p = 0; p < 4; ++p) {
    ASSERT_EQ(chip.program_page({2, p}, p, SpareArea{p, p, 0}), Status::ok);
  }
  EXPECT_EQ(chip.free_page_count(2), 0u);
  ASSERT_EQ(chip.erase_block(2), Status::ok);
  EXPECT_EQ(chip.erase_count(2), 1u);
  EXPECT_EQ(chip.free_page_count(2), 4u);
  for (PageIndex p = 0; p < 4; ++p) {
    EXPECT_EQ(chip.page_state({2, p}), PageState::free);
  }
}

TEST(NandChip, ErasedPageIsProgrammableAgain) {
  NandChip chip(small_config());
  ASSERT_EQ(chip.program_page({0, 1}, 5, SpareArea{}), Status::ok);
  ASSERT_EQ(chip.erase_block(0), Status::ok);
  EXPECT_EQ(chip.program_page({0, 1}, 6, SpareArea{}), Status::ok);
  EXPECT_EQ(chip.read_page({0, 1}).payload_token, 6u);
}

TEST(NandChip, InvalidatePageTracksCounts) {
  NandChip chip(small_config());
  ASSERT_EQ(chip.program_page({1, 0}, 1, SpareArea{}), Status::ok);
  ASSERT_EQ(chip.program_page({1, 1}, 2, SpareArea{}), Status::ok);
  EXPECT_EQ(chip.valid_page_count(1), 2u);
  ASSERT_EQ(chip.invalidate_page({1, 0}), Status::ok);
  EXPECT_EQ(chip.valid_page_count(1), 1u);
  EXPECT_EQ(chip.invalid_page_count(1), 1u);
  // idempotent on an already-invalid page
  ASSERT_EQ(chip.invalidate_page({1, 0}), Status::ok);
  EXPECT_EQ(chip.invalid_page_count(1), 1u);
  // invalid page remains readable, like on a real chip
  EXPECT_EQ(chip.read_page({1, 0}).status, Status::ok);
}

TEST(NandChip, InvalidateFreePageFails) {
  NandChip chip(small_config());
  EXPECT_EQ(chip.invalidate_page({0, 0}), Status::page_not_programmed);
}

TEST(NandChip, SequentialProgramEnforcement) {
  NandConfig cfg = small_config();
  cfg.enforce_sequential_program = true;
  NandChip chip(cfg);
  EXPECT_EQ(chip.program_page({0, 2}, 1, SpareArea{}), Status::page_already_programmed);
  EXPECT_EQ(chip.program_page({0, 0}, 1, SpareArea{}), Status::ok);
  EXPECT_EQ(chip.program_page({0, 1}, 2, SpareArea{}), Status::ok);
}

TEST(NandChip, NonSequentialProgramAllowedByDefault) {
  NandChip chip(small_config());
  EXPECT_EQ(chip.program_page({0, 3}, 1, SpareArea{}), Status::ok);
  EXPECT_EQ(chip.program_page({0, 0}, 2, SpareArea{}), Status::ok);
}

TEST(NandChip, FirstFailureRecordedAtEnduranceLimit) {
  NandChip chip(small_config(/*endurance=*/3));
  EXPECT_FALSE(chip.first_failure().has_value());
  ASSERT_EQ(chip.erase_block(5), Status::ok);
  ASSERT_EQ(chip.erase_block(5), Status::ok);
  EXPECT_FALSE(chip.first_failure().has_value());
  ASSERT_EQ(chip.erase_block(5), Status::ok);
  ASSERT_TRUE(chip.first_failure().has_value());
  EXPECT_EQ(chip.first_failure()->block, 5u);
  EXPECT_EQ(chip.first_failure()->total_erases, 3u);
  EXPECT_TRUE(chip.is_worn_out(5));
}

TEST(NandChip, FirstFailureIsSticky) {
  NandChip chip(small_config(/*endurance=*/1));
  ASSERT_EQ(chip.erase_block(2), Status::ok);
  ASSERT_EQ(chip.erase_block(3), Status::ok);
  EXPECT_EQ(chip.first_failure()->block, 2u);
}

TEST(NandChip, WithoutRetirementWornBlocksKeepWorking) {
  NandChip chip(small_config(/*endurance=*/2, /*retire=*/false));
  ASSERT_EQ(chip.erase_block(0), Status::ok);
  ASSERT_EQ(chip.erase_block(0), Status::ok);
  // Past the limit but retirement is off (the paper's Table 4 runs continue).
  EXPECT_EQ(chip.erase_block(0), Status::ok);
  EXPECT_EQ(chip.erase_count(0), 3u);
  EXPECT_FALSE(chip.is_retired(0));
}

TEST(NandChip, RetirementStopsWornBlocks) {
  NandChip chip(small_config(/*endurance=*/2, /*retire=*/true));
  ASSERT_EQ(chip.erase_block(0), Status::ok);
  ASSERT_EQ(chip.erase_block(0), Status::ok);
  EXPECT_EQ(chip.erase_block(0), Status::block_worn_out);
  EXPECT_TRUE(chip.is_retired(0));
  EXPECT_EQ(chip.erase_block(0), Status::bad_block);
  EXPECT_EQ(chip.program_page({0, 0}, 1, SpareArea{}), Status::bad_block);
}

TEST(NandChip, EraseObserverFiresWithNewCount) {
  NandChip chip(small_config());
  std::vector<std::pair<BlockIndex, std::uint32_t>> events;
  (void)chip.add_erase_observer([&](BlockIndex b, std::uint32_t c) { events.emplace_back(b, c); });
  ASSERT_EQ(chip.erase_block(1), Status::ok);
  ASSERT_EQ(chip.erase_block(1), Status::ok);
  ASSERT_EQ(chip.erase_block(4), Status::ok);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (std::pair<BlockIndex, std::uint32_t>{1, 1}));
  EXPECT_EQ(events[1], (std::pair<BlockIndex, std::uint32_t>{1, 2}));
  EXPECT_EQ(events[2], (std::pair<BlockIndex, std::uint32_t>{4, 1}));
}

TEST(NandChip, RemovedEraseObserverStopsFiring) {
  NandChip chip(small_config());
  int first = 0;
  int second = 0;
  const std::size_t token = chip.add_erase_observer([&](BlockIndex, std::uint32_t) { ++first; });
  (void)chip.add_erase_observer([&](BlockIndex, std::uint32_t) { ++second; });
  ASSERT_EQ(chip.erase_block(0), Status::ok);
  chip.remove_erase_observer(token);
  ASSERT_EQ(chip.erase_block(0), Status::ok);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);  // other tokens stay live
  EXPECT_THROW(chip.remove_erase_observer(token), PreconditionError);  // double remove
  EXPECT_THROW(chip.remove_erase_observer(99), PreconditionError);    // unknown token
}

TEST(NandChip, OperationsAdvanceTheClock) {
  SimClock clock;
  NandChip chip(small_config(), &clock);
  const auto& t = chip.timing();
  ASSERT_EQ(chip.program_page({0, 0}, 1, SpareArea{}), Status::ok);
  EXPECT_EQ(clock.now(), t.program_page_us);
  (void)chip.read_page({0, 0});
  EXPECT_EQ(clock.now(), t.program_page_us + t.read_page_us);
  ASSERT_EQ(chip.erase_block(0), Status::ok);
  EXPECT_EQ(clock.now(), t.program_page_us + t.read_page_us + t.erase_block_us);
}

TEST(NandChip, CountersTrackOperations) {
  NandChip chip(small_config());
  ASSERT_EQ(chip.program_page({0, 0}, 1, SpareArea{}), Status::ok);
  (void)chip.read_page({0, 0});
  (void)chip.read_page({0, 1});  // failed read still counts as an op
  ASSERT_EQ(chip.erase_block(0), Status::ok);
  EXPECT_EQ(chip.counters().programs, 1u);
  EXPECT_EQ(chip.counters().reads, 2u);
  EXPECT_EQ(chip.counters().erases, 1u);
}

TEST(NandChip, ByteModeStoresAndReturnsPayloadBytes) {
  NandConfig cfg = small_config();
  cfg.store_payload_bytes = true;
  cfg.geometry.page_size_bytes = 64;
  NandChip chip(cfg);
  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  ASSERT_EQ(chip.program_page({0, 0}, 1, SpareArea{}, data), Status::ok);
  const PageReadResult r = chip.read_page({0, 0});
  ASSERT_EQ(r.data.size(), 64u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), r.data.begin()));
  // Erase wipes the bytes.
  ASSERT_EQ(chip.erase_block(0), Status::ok);
  ASSERT_EQ(chip.program_page({0, 0}, 1, SpareArea{}), Status::ok);
  EXPECT_TRUE(chip.read_page({0, 0}).data.empty());
}

TEST(NandChip, ByteModeOffIgnoresBytes) {
  NandConfig cfg = small_config();
  cfg.geometry.page_size_bytes = 64;
  NandChip chip(cfg);
  const std::vector<std::uint8_t> data(64, 0xAB);
  ASSERT_EQ(chip.program_page({0, 0}, 1, SpareArea{}, data), Status::ok);
  EXPECT_TRUE(chip.read_page({0, 0}).data.empty());
}

TEST(NandChip, TokenOnlyPathNeverAllocatesPayloadStorage) {
  // The regression guard for the simulator hot path: a chip that does not
  // store payload bytes (every bench/sim workload) must never allocate a
  // payload arena or hand out payload spans, no matter how much it churns.
  NandChip chip(small_config());
  std::uint64_t token = 1;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (BlockIndex b = 0; b < 8; ++b) {
      for (PageIndex p = 0; p < 4; ++p) {
        ASSERT_EQ(chip.program_page({b, p}, token++, SpareArea{}), Status::ok);
        ASSERT_TRUE(chip.read_page({b, p}).data.empty());
      }
      ASSERT_EQ(chip.erase_block(b), Status::ok);
    }
  }
  EXPECT_EQ(chip.counters().payload_arena_allocations, 0u);
}

TEST(NandChip, ByteModeReadsAreZeroCopyViews) {
  NandConfig cfg = small_config();
  cfg.store_payload_bytes = true;
  cfg.geometry.page_size_bytes = 64;
  NandChip chip(cfg);
  const std::vector<std::uint8_t> data(64, 0x5A);
  ASSERT_EQ(chip.program_page({0, 0}, 1, SpareArea{}, data), Status::ok);
  ASSERT_EQ(chip.program_page({0, 1}, 2, SpareArea{}, data), Status::ok);
  // Repeated reads return the same pointer into chip storage — a view, not a
  // copy — and pages of one block share its arena at page_size stride.
  const PageReadResult first = chip.read_page({0, 0});
  const PageReadResult again = chip.read_page({0, 0});
  EXPECT_EQ(first.data.data(), again.data.data());
  EXPECT_EQ(chip.read_page({0, 1}).data.data(), first.data.data() + 64);
  EXPECT_EQ(chip.counters().payload_arena_allocations, 1u);
}

TEST(NandChip, PayloadArenaIsReusedAcrossErases) {
  NandConfig cfg = small_config();
  cfg.store_payload_bytes = true;
  cfg.geometry.page_size_bytes = 64;
  NandChip chip(cfg);
  const std::vector<std::uint8_t> data(64, 0x11);
  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_EQ(chip.program_page({3, 0}, 7, SpareArea{}, data), Status::ok);
    ASSERT_EQ(chip.erase_block(3), Status::ok);
  }
  // One allocation for block 3, ever — erases recycle the arena.
  EXPECT_EQ(chip.counters().payload_arena_allocations, 1u);
}

// -- payload-arena recycling ---------------------------------------------------
//
// A completed erase hands its block's arena to a free list, and the next
// arena-less block to store bytes takes the most recently freed one. These
// tests pin that the recycled memory never leaks a previous owner's bytes and
// that the erases which do not complete keep the arena.

NandConfig arena_config() {
  NandConfig c;
  c.geometry = FlashGeometry{.block_count = 8, .pages_per_block = 8, .page_size_bytes = 64};
  c.timing = default_timing(CellType::mlc_x2);
  c.store_payload_bytes = true;
  return c;
}

std::vector<std::uint8_t> page_of(std::uint8_t fill) { return std::vector<std::uint8_t>(64, fill); }

/// Everything a read of `addr` exposes, bytes copied out of the view.
struct PageSnapshot {
  Status status = Status::ok;
  PageState state = PageState::free;
  std::uint64_t token = 0;
  SpareArea spare;
  std::vector<std::uint8_t> bytes;
  bool operator==(const PageSnapshot&) const = default;
};

PageSnapshot snapshot(const NandChip& chip, Ppa addr) {
  const PageReadResult r = chip.read_page(addr);
  return {r.status, r.state, r.payload_token, r.spare, {r.data.begin(), r.data.end()}};
}

std::vector<PageSnapshot> snapshot_block(const NandChip& chip, BlockIndex b) {
  std::vector<PageSnapshot> out;
  for (PageIndex p = 0; p < 8; ++p) out.push_back(snapshot(chip, {b, p}));
  return out;
}

TEST(NandChipArena, RecycledArenaLeaksNoStaleBytes) {
  NandChip chip(arena_config());
  const std::vector<std::uint8_t> x = page_of(0xA5);
  const std::vector<std::uint8_t> y = page_of(0x3C);
  ASSERT_EQ(chip.program_page({0, 0}, 1, SpareArea{10, 1, 0}, x), Status::ok);
  const std::uint8_t* arena = chip.read_page({0, 0}).data.data();
  ASSERT_EQ(chip.erase_block(0), Status::ok);
  // Block 2 has no arena yet, so its first byte program takes block 0's.
  ASSERT_EQ(chip.program_page({2, 5}, 2, SpareArea{20, 2, 0}, y), Status::ok);
  const PageReadResult b5 = chip.read_page({2, 5});
  ASSERT_EQ(b5.status, Status::ok);
  EXPECT_EQ(b5.data.data(), arena + 5 * 64);
  EXPECT_TRUE(std::equal(y.begin(), y.end(), b5.data.begin(), b5.data.end()));
  // Page 0 of the new owner shares the slice that held X: it must read as
  // never programmed, with no bytes.
  const PageReadResult b0 = chip.read_page({2, 0});
  EXPECT_EQ(b0.status, Status::page_not_programmed);
  EXPECT_TRUE(b0.data.empty());
  // The old owner reads as erased.
  EXPECT_EQ(chip.page_state({0, 0}), PageState::free);
  EXPECT_EQ(chip.read_page({0, 0}).status, Status::page_not_programmed);
  EXPECT_TRUE(chip.read_page({0, 0}).data.empty());
  EXPECT_EQ(chip.counters().payload_arena_allocations, 2u);
}

#if defined(__SANITIZE_ADDRESS__)
#define SWL_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWL_TEST_ASAN 1
#endif
#endif
#ifdef SWL_TEST_ASAN
TEST(NandChipArenaDeathTest, ViewHeldAcrossEraseFaultsUnderAsan) {
  // A freed arena is poisoned until a block takes it again, so reading a
  // view past its block's erase is reported instead of returning stale bytes.
  const auto read_stale_view = [] {
    NandChip chip(arena_config());
    ASSERT_EQ(chip.program_page({0, 0}, 1, SpareArea{}, page_of(0x42)), Status::ok);
    const std::span<const std::uint8_t> view = chip.read_page({0, 0}).data;
    ASSERT_EQ(chip.erase_block(0), Status::ok);
    volatile std::uint8_t byte = view[0];
    (void)byte;
  };
  EXPECT_DEATH(read_stale_view(), "use-after-poison");
}
#endif

/// Three blocks through `cycles` erase/program rounds with random pages, the
/// expected bytes kept in a twin map; every page is checked after each round.
void churn_three_blocks(NandChip& chip, int cycles) {
  Rng rng(0xA7E4A);
  const bool bytes = chip.config().store_payload_bytes;
  // twin[b][p]: expected bytes of page p of block b; empty = free page.
  std::vector<std::vector<std::vector<std::uint8_t>>> twin(
      3, std::vector<std::vector<std::uint8_t>>(8));
  std::uint64_t token = 1;
  const auto fill = [&](BlockIndex b) {
    for (PageIndex p = 0; p < 8; ++p) {
      if (rng.chance(0.25)) continue;  // leave some pages free
      std::vector<std::uint8_t> data(64);
      for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.below(256));
      ASSERT_EQ(chip.program_page({b, p}, token++, SpareArea{p, token, 0}, data), Status::ok);
      twin[b][p] = std::move(data);
    }
  };
  const auto verify = [&] {
    for (BlockIndex b = 0; b < 3; ++b) {
      for (PageIndex p = 0; p < 8; ++p) {
        SCOPED_TRACE(::testing::Message() << "page " << b << "/" << p);
        const PageReadResult r = chip.read_page({b, p});
        if (twin[b][p].empty()) {
          ASSERT_EQ(r.status, Status::page_not_programmed);
          ASSERT_TRUE(r.data.empty());
          continue;
        }
        ASSERT_EQ(r.status, Status::ok);
        if (bytes) {
          ASSERT_TRUE(std::equal(twin[b][p].begin(), twin[b][p].end(), r.data.begin(),
                                 r.data.end()));
        } else {
          ASSERT_TRUE(r.data.empty());
        }
      }
    }
  };
  for (BlockIndex b = 0; b < 3; ++b) fill(b);
  verify();
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const auto b = static_cast<BlockIndex>(rng.below(3));
    ASSERT_EQ(chip.erase_block(b), Status::ok);
    for (auto& page : twin[b]) page.clear();
    fill(b);
    verify();
  }
}

TEST(NandChipArena, BytesRoundTripUnderEraseChurn) {
  NandChip chip(arena_config());
  churn_three_blocks(chip, 100);
  // Arenas move between the three blocks, but each block was given one at
  // most once.
  EXPECT_EQ(chip.counters().payload_arena_allocations, 3u);
  EXPECT_EQ(chip.counters().erases, 100u);
}

TEST(NandChipArena, TokenOnlyChurnGivesNoArena) {
  NandConfig c = arena_config();
  c.store_payload_bytes = false;
  NandChip chip(c);
  churn_three_blocks(chip, 100);
  EXPECT_EQ(chip.counters().payload_arena_allocations, 0u);
}

/// Programs bytes into pages 0-2 of `b` (fill b+1, b+2, b+3).
void program_bytes(NandChip& chip, BlockIndex b) {
  for (PageIndex p = 0; p < 3; ++p) {
    ASSERT_EQ(chip.program_page({b, p}, 100 + p, SpareArea{p, p, 0},
                                page_of(static_cast<std::uint8_t>(b + p + 1))),
              Status::ok);
  }
}

/// Cycles arenas through other blocks: 4 stores bytes, is erased (its arena
/// goes to the free list), and 5 takes that arena. None of it may reach
/// `kept`, the arena a block kept through an erase that did not complete.
void churn_other_arenas(NandChip& chip, const std::uint8_t* kept) {
  program_bytes(chip, 4);
  EXPECT_NE(chip.read_page({4, 0}).data.data(), kept);
  if (chip.erase_block(4) == Status::ok) {
    program_bytes(chip, 5);
    EXPECT_NE(chip.read_page({5, 0}).data.data(), kept);
  }
  program_bytes(chip, 6);
  EXPECT_NE(chip.read_page({6, 0}).data.data(), kept);
}

TEST(NandChipArena, WornOutRetireKeepsTheArena) {
  NandConfig c = arena_config();
  c.timing.endurance = 1;
  c.retire_worn_blocks = true;
  NandChip chip(c);
  ASSERT_EQ(chip.erase_block(0), Status::ok);  // reaches the endurance limit
  program_bytes(chip, 0);
  const std::vector<PageSnapshot> before = snapshot_block(chip, 0);
  const std::uint8_t* arena = chip.read_page({0, 0}).data.data();
  ASSERT_EQ(chip.erase_block(0), Status::block_worn_out);
  churn_other_arenas(chip, arena);
  EXPECT_EQ(snapshot_block(chip, 0), before);
  EXPECT_EQ(chip.read_page({0, 0}).data.data(), arena);
}

TEST(NandChipArena, InjectedEraseFailureKeepsTheArena) {
  NandConfig c = arena_config();
  c.failures.erase_fail_p = 1.0;
  NandChip chip(c);
  program_bytes(chip, 0);
  const std::vector<PageSnapshot> before = snapshot_block(chip, 0);
  const std::uint8_t* arena = chip.read_page({0, 0}).data.data();
  ASSERT_EQ(chip.erase_block(0), Status::erase_failed);
  ASSERT_TRUE(chip.is_retired(0));
  churn_other_arenas(chip, arena);  // every erase fails here, so 5 stays empty
  EXPECT_EQ(snapshot_block(chip, 0), before);
  EXPECT_EQ(chip.read_page({0, 0}).data.data(), arena);
}

/// Cuts power at the first erase it is consulted on.
class CutFirstErase final : public PowerLossHook {
 public:
  explicit CutFirstErase(CrashDecision how) : how_(how) {}
  CrashDecision on_operation(CrashOp op) override {
    if (op != CrashOp::erase || fired_) return CrashDecision::proceed;
    fired_ = true;
    return how_;
  }

 private:
  CrashDecision how_;
  bool fired_ = false;
};

TEST(NandChipArena, InterruptedErasesKeepTheArena) {
  for (const CrashDecision how : {CrashDecision::cut_before, CrashDecision::cut_during}) {
    SCOPED_TRACE(how == CrashDecision::cut_before ? "cut_before" : "cut_during");
    NandChip chip(arena_config());
    program_bytes(chip, 0);
    const std::uint8_t* arena = chip.read_page({0, 0}).data.data();
    CutFirstErase cut(how);
    chip.set_power_loss_hook(&cut);
    EXPECT_THROW((void)chip.erase_block(0), PowerLossError);
    // What the interrupted erase left (intact pages, or torn pages with no
    // bytes) reads back unchanged while other blocks recycle arenas.
    const std::vector<PageSnapshot> after_cut = snapshot_block(chip, 0);
    EXPECT_EQ(after_cut[0].bytes.empty(), how == CrashDecision::cut_during);
    churn_other_arenas(chip, arena);
    EXPECT_EQ(snapshot_block(chip, 0), after_cut);
    // Block 0 still owned its arena: the recovery erase is the one that frees
    // it, and the next arena-less block takes it.
    ASSERT_EQ(chip.erase_block(0), Status::ok);
    ASSERT_EQ(chip.program_page({7, 0}, 1, SpareArea{}, page_of(0x77)), Status::ok);
    EXPECT_EQ(chip.read_page({7, 0}).data.data(), arena);
    chip.set_power_loss_hook(nullptr);
  }
}

TEST(NandChip, ByteModeRejectsWrongSize) {
  NandConfig cfg = small_config();
  cfg.store_payload_bytes = true;
  NandChip chip(cfg);
  const std::vector<std::uint8_t> wrong(100, 0);
  EXPECT_THROW((void)chip.program_page({0, 0}, 1, SpareArea{}, wrong), PreconditionError);
}

TEST(NandChip, OutOfRangeAddressesThrow) {
  NandChip chip(small_config());
  EXPECT_THROW((void)chip.read_page({8, 0}), PreconditionError);
  EXPECT_THROW((void)chip.read_page({0, 4}), PreconditionError);
  EXPECT_THROW((void)chip.erase_block(8), PreconditionError);
  EXPECT_THROW((void)chip.program_page({9, 9}, 0, SpareArea{}), PreconditionError);
}

// -- copy-back ---------------------------------------------------------------
//
// copy_pages must be indistinguishable from a read_page + program_page pair
// per op. Each test drives twin chips, one through copy_pages and one through
// that pair, and compares everything the chip exposes.

NandConfig copy_config(bool bytes, double program_fail_p = 0.0, std::uint64_t seed = 1) {
  NandConfig c;
  c.geometry = FlashGeometry{.block_count = 8, .pages_per_block = 8, .page_size_bytes = 64};
  c.timing = default_timing(CellType::mlc_x2);
  c.store_payload_bytes = bytes;
  c.failures.program_fail_p = program_fail_p;
  c.failures.seed = seed;
  return c;
}

/// A chip with its own clock.
struct Rig {
  SimClock clock;
  NandChip chip;
  explicit Rig(const NandConfig& c) : chip(c, &clock) {}
};

/// Programs pages 0-5 of blocks 0-2 (every third one then invalidated, since
/// GC may copy any programmed page the caller still maps). A failed program
/// just leaves its page consumed.
void fill_sources(NandChip& chip) {
  for (BlockIndex b = 0; b < 3; ++b) {
    for (PageIndex p = 0; p < 6; ++p) {
      const Lba lba = b * 100 + p;
      const std::vector<std::uint8_t> bytes(64, static_cast<std::uint8_t>(lba));
      const std::span<const std::uint8_t> data =
          chip.config().store_payload_bytes ? std::span<const std::uint8_t>(bytes)
                                            : std::span<const std::uint8_t>{};
      const Status st = chip.program_page({b, p}, 0x1000 + lba,
                                          SpareArea{lba, lba, 0, PageRole::replacement}, data);
      if (st == Status::ok && p % 3 == 1) {
        ASSERT_EQ(chip.invalidate_page({b, p}), Status::ok);
      }
    }
  }
}

/// One op per readable source, interleaving blocks 0-2 and filling blocks 5
/// and up in page order.
std::vector<CopyOp> make_ops(const NandChip& chip) {
  std::vector<CopyOp> ops;
  BlockIndex dst_block = 5;
  PageIndex next = 0;
  for (PageIndex p = 0; p < 6; ++p) {
    for (BlockIndex b = 0; b < 3; ++b) {
      const Ppa src{b, p};
      if (chip.page_state(src) == PageState::free || chip.spare(src).lba == kInvalidLba) continue;
      if (next == 8) {
        ++dst_block;
        next = 0;
      }
      ops.push_back({src, Ppa{dst_block, next++}, chip.spare(src).lba, 500 + ops.size(),
                     PageRole::primary});
    }
  }
  return ops;
}

/// The twin: each op as read_page followed by program_page. Keeps the last
/// read, which a retry after a failed program reprograms.
struct ReadThenProgram {
  PageReadResult last;

  CopyResult operator()(NandChip& chip, std::span<const CopyOp> ops) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      last = chip.read_page(ops[i].src);
      EXPECT_EQ(last.status, Status::ok);
      const Status st = reprogram(chip, ops[i]);
      if (st != Status::ok) return {i + 1, st};
    }
    return {ops.size(), Status::ok};
  }
  Status reprogram(NandChip& chip, const CopyOp& op) const {
    return chip.program_page(op.dst, last.payload_token,
                             SpareArea{op.lba, op.sequence, 0, op.role}, last.data);
  }
};

/// Asserts that the twins agree on counters, clock, and every page's state,
/// spare (ECC included), token and bytes.
void expect_same(Rig& a, Rig& b) {
  const NandCounters& ca = a.chip.counters();
  const NandCounters& cb = b.chip.counters();
  EXPECT_EQ(ca.reads, cb.reads);
  EXPECT_EQ(ca.programs, cb.programs);
  EXPECT_EQ(ca.erases, cb.erases);
  EXPECT_EQ(ca.program_failures, cb.program_failures);
  EXPECT_EQ(ca.erase_failures, cb.erase_failures);
  EXPECT_EQ(ca.payload_arena_allocations, cb.payload_arena_allocations);
  EXPECT_EQ(a.clock.now(), b.clock.now());
  for (BlockIndex blk = 0; blk < 8; ++blk) {
    EXPECT_EQ(a.chip.valid_page_count(blk), b.chip.valid_page_count(blk));
    EXPECT_EQ(a.chip.invalid_page_count(blk), b.chip.invalid_page_count(blk));
    for (PageIndex p = 0; p < 8; ++p) {
      const Ppa addr{blk, p};
      SCOPED_TRACE(::testing::Message() << "page " << blk << "/" << p);
      ASSERT_EQ(a.chip.page_state(addr), b.chip.page_state(addr));
      EXPECT_EQ(a.chip.spare(addr), b.chip.spare(addr));
      if (a.chip.page_state(addr) == PageState::free) continue;
      const PageReadResult ra = a.chip.read_page(addr);
      const PageReadResult rb = b.chip.read_page(addr);
      EXPECT_EQ(ra.payload_token, rb.payload_token);
      EXPECT_TRUE(std::equal(ra.data.begin(), ra.data.end(), rb.data.begin(), rb.data.end()));
    }
  }
}

TEST(NandChipCopyPages, MatchesReadThenProgram) {
  for (const bool bytes : {false, true}) {
    SCOPED_TRACE(bytes ? "byte-carrying chip" : "token-only chip");
    Rig a(copy_config(bytes));
    Rig b(copy_config(bytes));
    fill_sources(a.chip);
    fill_sources(b.chip);
    const std::vector<CopyOp> ops = make_ops(a.chip);
    ASSERT_EQ(ops.size(), 18u);
    const CopyResult ra = a.chip.copy_pages(ops);
    const CopyResult rb = ReadThenProgram{}(b.chip, ops);
    EXPECT_EQ(ra.attempted, ops.size());
    EXPECT_EQ(ra.status, Status::ok);
    EXPECT_EQ(rb.attempted, ops.size());
    // The copies carry the source's token and bytes under the caller's spare.
    EXPECT_EQ(a.chip.read_page(ops[4].dst).payload_token, 0x1000u + ops[4].lba);
    EXPECT_EQ(a.chip.spare(ops[4].dst).sequence, ops[4].sequence);
    EXPECT_EQ(a.chip.spare(ops[4].dst).role, PageRole::primary);
    EXPECT_EQ(b.chip.read_page(ops[4].dst).payload_token, 0x1000u + ops[4].lba);
    EXPECT_EQ(a.chip.counters().payload_arena_allocations, bytes ? 6u : 0u);
    expect_same(a, b);
  }
}

TEST(NandChipCopyPages, MatchesReadThenProgramUnderProgramFailures) {
  int mid_batch_failures = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const bool bytes = seed % 2 == 0;
    Rig a(copy_config(bytes, 0.15, seed));
    Rig b(copy_config(bytes, 0.15, seed));
    fill_sources(a.chip);
    fill_sources(b.chip);
    const std::vector<CopyOp> ops = make_ops(a.chip);
    ASSERT_EQ(make_ops(b.chip).size(), ops.size());
    ReadThenProgram twin;
    const CopyResult ra = a.chip.copy_pages(ops);
    const CopyResult rb = twin(b.chip, ops);
    ASSERT_EQ(ra.attempted, rb.attempted);
    ASSERT_EQ(ra.status, rb.status);
    expect_same(a, b);
    if (ra.status != Status::program_failed) continue;
    // The failed op consumed its destination page on both chips.
    const CopyOp& failed = ops[ra.attempted - 1];
    EXPECT_EQ(a.chip.page_state(failed.dst), PageState::invalid);
    EXPECT_EQ(a.chip.spare(failed.dst).lba, kInvalidLba);
    if (ra.attempted > 1 && ra.attempted < ops.size()) ++mid_batch_failures;
    // The next op retries the failed source on a fresh page from the page
    // register (no second read), exactly as a reprogram of the last read.
    CopyOp retry = failed;
    retry.dst = Ppa{4, 0};
    const CopyResult na = a.chip.copy_pages({&retry, 1}, CopySource::buffered);
    const Status nb = twin.reprogram(b.chip, retry);
    EXPECT_EQ(na.attempted, 1u);
    EXPECT_EQ(na.status, nb);
    expect_same(a, b);
  }
  EXPECT_GT(mid_batch_failures, 0);
}

/// Cuts power at the `at`-th program consultation (0-based).
class CutAt final : public PowerLossHook {
 public:
  CutAt(std::size_t at, CrashDecision how) : at_(at), how_(how) {}
  CrashDecision on_operation(CrashOp op) override {
    if (op != CrashOp::program) return CrashDecision::proceed;
    return seen_++ == at_ ? how_ : CrashDecision::proceed;
  }

 private:
  std::size_t at_;
  CrashDecision how_;
  std::size_t seen_ = 0;
};

TEST(NandChipCopyPages, PowerCutLeavesTheSameTornState) {
  for (const CrashDecision how : {CrashDecision::cut_before, CrashDecision::cut_during}) {
    for (std::size_t k = 0; k < 18; k += 5) {
      SCOPED_TRACE(::testing::Message()
                   << (how == CrashDecision::cut_before ? "cut_before" : "cut_during") << " at op "
                   << k);
      Rig a(copy_config(true));
      Rig b(copy_config(true));
      fill_sources(a.chip);
      fill_sources(b.chip);
      const std::vector<CopyOp> ops = make_ops(a.chip);
      CutAt cut_a(k, how);
      CutAt cut_b(k, how);
      a.chip.set_power_loss_hook(&cut_a);
      b.chip.set_power_loss_hook(&cut_b);
      EXPECT_THROW((void)a.chip.copy_pages(ops), PowerLossError);
      EXPECT_THROW((void)ReadThenProgram{}(b.chip, ops), PowerLossError);
      a.chip.set_power_loss_hook(nullptr);
      b.chip.set_power_loss_hook(nullptr);
      // Ops before k landed, op k is free (cut_before) or torn (cut_during).
      EXPECT_EQ(a.chip.page_state(ops[k].dst),
                how == CrashDecision::cut_before ? PageState::free : PageState::invalid);
      if (k > 0) {
        EXPECT_EQ(a.chip.spare(ops[k - 1].dst).sequence, ops[k - 1].sequence);
      }
      expect_same(a, b);
    }
  }
}

TEST(NandChipCopyPages, BufferedSourceSkipsOnlyTheFirstRead) {
  Rig rig(copy_config(false));
  fill_sources(rig.chip);
  const std::vector<CopyOp> ops = make_ops(rig.chip);
  const NandCounters before = rig.chip.counters();
  const SimTime t0 = rig.clock.now();
  const CopyResult r = rig.chip.copy_pages({ops.data(), 3}, CopySource::buffered);
  EXPECT_EQ(r.attempted, 3u);
  EXPECT_EQ(r.status, Status::ok);
  EXPECT_EQ(rig.chip.counters().reads, before.reads + 2);
  EXPECT_EQ(rig.chip.counters().programs, before.programs + 3);
  const NandTiming& t = rig.chip.timing();
  EXPECT_EQ(rig.clock.now(), t0 + 2 * t.read_page_us + 3 * t.program_page_us);
}

TEST(NandChipCopyPages, WrongSourceLbaThrowsBeforeProgramming) {
  Rig rig(copy_config(false));
  fill_sources(rig.chip);
  std::vector<CopyOp> ops = make_ops(rig.chip);
  ops[0].lba += 1;
  const std::uint64_t programs = rig.chip.counters().programs;
  EXPECT_THROW((void)rig.chip.copy_pages(ops), InvariantError);
  EXPECT_EQ(rig.chip.counters().programs, programs);
  EXPECT_EQ(rig.chip.page_state(ops[0].dst), PageState::free);
  // A free source is not programmed: same failure.
  const CopyOp from_free{Ppa{3, 0}, Ppa{4, 0}, 0, 1, PageRole::data};
  EXPECT_THROW((void)rig.chip.copy_pages({&from_free, 1}), InvariantError);
  EXPECT_EQ(rig.chip.counters().programs, programs);
}

TEST(NandChipCopyPages, RetiredDestinationChargesOnlyTheRead) {
  NandConfig c = copy_config(false);
  c.timing.endurance = 1;
  c.retire_worn_blocks = true;
  Rig rig(c);
  fill_sources(rig.chip);
  ASSERT_EQ(rig.chip.erase_block(4), Status::ok);
  ASSERT_EQ(rig.chip.erase_block(4), Status::block_worn_out);
  ASSERT_TRUE(rig.chip.is_retired(4));
  const NandCounters before = rig.chip.counters();
  const SimTime t0 = rig.clock.now();
  const std::vector<CopyOp> ops = make_ops(rig.chip);
  const CopyOp op{ops[0].src, Ppa{4, 0}, ops[0].lba, 9, PageRole::data};
  const CopyResult r = rig.chip.copy_pages({&op, 1});
  EXPECT_EQ(r.attempted, 1u);
  EXPECT_EQ(r.status, Status::bad_block);
  EXPECT_EQ(rig.chip.counters().reads, before.reads + 1);
  EXPECT_EQ(rig.chip.counters().programs, before.programs);
  EXPECT_EQ(rig.clock.now(), t0 + rig.chip.timing().read_page_us);
}

TEST(NandChipCopyPages, OutOfRangeOpsThrow) {
  Rig rig(copy_config(false));
  fill_sources(rig.chip);
  const NandCounters before = rig.chip.counters();
  const CopyOp bad_src{Ppa{8, 0}, Ppa{4, 0}, 0, 1, PageRole::data};
  const CopyOp bad_dst{Ppa{0, 0}, Ppa{4, 8}, 0, 1, PageRole::data};
  EXPECT_THROW((void)rig.chip.copy_pages({&bad_src, 1}), PreconditionError);
  EXPECT_THROW((void)rig.chip.copy_pages({&bad_dst, 1}), PreconditionError);
  EXPECT_EQ(rig.chip.counters().reads, before.reads);
  EXPECT_EQ(rig.chip.counters().programs, before.programs);
}

TEST(NandChip, RejectsInvalidConfig) {
  NandConfig c = small_config();
  c.geometry.block_count = 0;
  EXPECT_THROW(NandChip{c}, PreconditionError);
  c = small_config();
  c.timing.endurance = 0;
  EXPECT_THROW(NandChip{c}, PreconditionError);
}

}  // namespace
}  // namespace swl::nand
