#include "swl/leveler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/contracts.hpp"
#include "core/rng.hpp"

namespace swl::wear {
namespace {

/// Cleaner that faithfully erases every block of the requested set (and
/// reports the erase back, as the paper's Cleaner invokes SWL-BETUpdate).
class RecordingCleaner : public Cleaner {
 public:
  explicit RecordingCleaner(SwLeveler& leveler) : leveler_(leveler) {}

  void collect_blocks(BlockIndex first, BlockIndex count) override {
    for (BlockIndex b = first; b < first + count; ++b) {
      collected.push_back(b);
      leveler_.on_block_erased(b);
    }
  }

  std::vector<BlockIndex> collected;

 private:
  SwLeveler& leveler_;
};

/// Cleaner that does nothing (e.g. every selected block is unerasable).
class NoopCleaner : public Cleaner {
 public:
  void collect_blocks(BlockIndex, BlockIndex) override { ++calls; }
  int calls = 0;
};

LevelerConfig config(double t, std::uint32_t k = 0) {
  LevelerConfig c;
  c.threshold = t;
  c.k = k;
  return c;
}

TEST(SwLeveler, BetUpdateCountsErasesAndFlags) {
  SwLeveler lev(16, config(100));
  lev.on_block_erased(3);
  lev.on_block_erased(3);
  lev.on_block_erased(7);
  EXPECT_EQ(lev.ecnt(), 3u);   // every erase counts
  EXPECT_EQ(lev.fcnt(), 2u);   // distinct flags only
  EXPECT_TRUE(lev.bet().test_block(3));
  EXPECT_TRUE(lev.bet().test_block(7));
}

TEST(SwLeveler, UnevennessIsEcntOverFcnt) {
  SwLeveler lev(16, config(100));
  EXPECT_DOUBLE_EQ(lev.unevenness(), 0.0);  // fcnt == 0
  for (int i = 0; i < 10; ++i) lev.on_block_erased(0);
  EXPECT_DOUBLE_EQ(lev.unevenness(), 10.0);
  lev.on_block_erased(1);
  EXPECT_DOUBLE_EQ(lev.unevenness(), 11.0 / 2.0);
}

TEST(SwLeveler, RunIsNoopWhenBetJustReset) {
  SwLeveler lev(16, config(2));
  RecordingCleaner cleaner(lev);
  lev.run(cleaner);  // Algorithm 1 step 1: fcnt == 0 -> return
  EXPECT_TRUE(cleaner.collected.empty());
}

TEST(SwLeveler, RunIsNoopBelowThreshold) {
  SwLeveler lev(16, config(100));
  lev.on_block_erased(0);  // unevenness = 1 < 100
  EXPECT_FALSE(lev.needs_leveling());
  RecordingCleaner cleaner(lev);
  lev.run(cleaner);
  EXPECT_TRUE(cleaner.collected.empty());
}

TEST(SwLeveler, RunCollectsUnerasedBlocksUntilRatioDrops) {
  SwLeveler lev(4, config(4));
  RecordingCleaner cleaner(lev);
  // 8 erases of block 0: ecnt=8, fcnt=1, ratio=8 >= 4.
  for (int i = 0; i < 8; ++i) lev.on_block_erased(0);
  EXPECT_TRUE(lev.needs_leveling());
  lev.run(cleaner);
  // Collecting blocks raises fcnt until ecnt/fcnt < 4:
  // after 2 collections ecnt=10, fcnt=3, 10/3 < 4 -> stop.
  EXPECT_EQ(cleaner.collected.size(), 2u);
  EXPECT_FALSE(lev.needs_leveling());
  // Only blocks whose flag was clear were selected.
  for (const auto b : cleaner.collected) EXPECT_NE(b, 0u);
}

TEST(SwLeveler, CyclicSelectionVisitsDistinctBlocks) {
  SwLeveler lev(8, config(2));
  RecordingCleaner cleaner(lev);
  for (int i = 0; i < 14; ++i) lev.on_block_erased(1);
  lev.run(cleaner);
  // No block set should be collected twice within the run.
  std::vector<BlockIndex> seen = cleaner.collected;
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
}

TEST(SwLeveler, BetResetWhenAllFlagsSet) {
  SwLeveler lev(4, config(1000));
  RecordingCleaner cleaner(lev);
  // Erase blocks 0..2 many times each -> fcnt=3 of 4 flags, ratio 1000.
  for (int i = 0; i < 3000; ++i) lev.on_block_erased(static_cast<BlockIndex>(i % 3));
  EXPECT_TRUE(lev.needs_leveling());
  lev.run(cleaner);
  if (lev.stats().bet_resets == 0) {
    // Collecting block 3 lowered the ratio before a reset was needed; push
    // the (now full) BET over the threshold again to observe the reset.
    for (int i = 0; i < 8000; ++i) lev.on_block_erased(static_cast<BlockIndex>(i % 4));
    lev.run(cleaner);
  }
  EXPECT_GE(lev.stats().bet_resets, 1u);
  EXPECT_FALSE(lev.bet().all_set());  // steps 3-8: reset starts a new interval
  EXPECT_EQ(lev.ecnt(), 0u);
  EXPECT_EQ(lev.fcnt(), 0u);
}

TEST(SwLeveler, ResetRerandomizesFindexWithinRange) {
  SwLeveler lev(64, config(1));
  RecordingCleaner cleaner(lev);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 640; ++i) lev.on_block_erased(static_cast<BlockIndex>(i % 64));
    lev.run(cleaner);
    EXPECT_LT(lev.findex(), lev.bet().flag_count());
  }
}

TEST(SwLeveler, KModeCollectsWholeBlockSets) {
  SwLeveler lev(16, config(4, /*k=*/2));
  RecordingCleaner cleaner(lev);
  for (int i = 0; i < 16; ++i) lev.on_block_erased(0);  // flag 0 set
  lev.run(cleaner);
  ASSERT_FALSE(cleaner.collected.empty());
  // Sets are 4 contiguous blocks, never from flag 0's set {0..3}.
  ASSERT_EQ(cleaner.collected.size() % 4, 0u);
  for (const auto b : cleaner.collected) EXPECT_GE(b, 4u);
}

TEST(SwLeveler, MaxKSingleFlagResetsWithoutCollecting) {
  // 2^k >= block_count: one flag covers the whole device, so the first erase
  // fills the BET. Every run() over threshold can only start a new interval
  // (Algorithm 1 steps 3-8) — there is never a clear flag to collect.
  SwLeveler lev(16, config(2, /*k=*/5));
  ASSERT_EQ(lev.bet().flag_count(), 1u);
  RecordingCleaner cleaner(lev);
  for (int i = 0; i < 10; ++i) lev.on_block_erased(static_cast<BlockIndex>(i % 16));
  EXPECT_EQ(lev.fcnt(), 1u);
  EXPECT_TRUE(lev.needs_leveling());
  lev.run(cleaner);
  EXPECT_TRUE(cleaner.collected.empty());
  EXPECT_GE(lev.stats().bet_resets, 1u);
  EXPECT_EQ(lev.ecnt(), 0u);
  EXPECT_EQ(lev.fcnt(), 0u);
  EXPECT_EQ(lev.findex(), 0u);  // the only legal findex
  EXPECT_FALSE(lev.needs_leveling());
}

TEST(SwLeveler, TailSetCollectionCoversOnlyRealBlocks) {
  // 13 blocks, k=2: the tail set {12} is one block. A leveler collecting the
  // tail flag must hand the Cleaner exactly that one block, not 2^k.
  SwLeveler lev(13, config(2, /*k=*/2));
  RecordingCleaner cleaner(lev);
  // Set flags 0..2 (blocks 0..11) hot; only the tail flag stays clear.
  for (int i = 0; i < 24; ++i) lev.on_block_erased(static_cast<BlockIndex>(i % 12));
  EXPECT_EQ(lev.fcnt(), 3u);
  lev.run(cleaner);
  // Whatever the scan order, block 12 is the only clear candidate the first
  // collection can pick, and no collected index may fall outside the device.
  ASSERT_FALSE(cleaner.collected.empty());
  EXPECT_EQ(cleaner.collected.front(), 12u);
  for (const auto b : cleaner.collected) EXPECT_LT(b, 13u);
}

TEST(SwLeveler, StallGuardStopsFruitlessScans) {
  SwLeveler lev(8, config(2));
  NoopCleaner cleaner;
  for (int i = 0; i < 100; ++i) lev.on_block_erased(0);
  // The cleaner never erases: each run() gives up after exactly one full
  // scan of the BET, flag_count no-progress collections.
  const auto flags = lev.bet().flag_count();
  lev.run(cleaner);
  EXPECT_EQ(lev.stats().stalls, 1u);
  EXPECT_EQ(lev.stats().collections_requested, flags);
  EXPECT_EQ(cleaner.calls, static_cast<int>(flags));
  lev.run(cleaner);
  EXPECT_EQ(lev.stats().stalls, 2u);
  EXPECT_EQ(lev.stats().collections_requested, 2 * flags);
}

TEST(SwLeveler, StallGuardWaitsForAFullScan) {
  // Skips the first flag_count - 1 selected sets (e.g. each holds the write
  // frontier), then erases every set it is handed. One run() must reach the
  // set that can be erased instead of giving up early.
  class LateCleaner : public Cleaner {
   public:
    LateCleaner(SwLeveler& lev, std::size_t skips) : lev_(lev), skips_(skips) {}
    void collect_blocks(BlockIndex first, BlockIndex count) override {
      if (skips_ > 0) {
        --skips_;
        return;
      }
      for (BlockIndex b = first; b < first + count; ++b) {
        collected.push_back(b);
        lev_.on_block_erased(b);
      }
    }
    std::vector<BlockIndex> collected;

   private:
    SwLeveler& lev_;
    std::size_t skips_;
  };
  SwLeveler lev(8, config(2));
  for (int i = 0; i < 100; ++i) lev.on_block_erased(0);
  LateCleaner cleaner(lev, lev.bet().flag_count() - 1);
  lev.run(cleaner);
  EXPECT_EQ(lev.stats().stalls, 0u);
  EXPECT_FALSE(cleaner.collected.empty());
  EXPECT_GT(lev.stats().collections_requested, lev.bet().flag_count() - 1);
}

TEST(SwLeveler, ReentrantRunIsIgnored) {
  // A cleaner that calls back into run() — the guard must ignore it.
  class ReentrantCleaner : public Cleaner {
   public:
    explicit ReentrantCleaner(SwLeveler& lev) : lev_(lev) {}
    void collect_blocks(BlockIndex first, BlockIndex count) override {
      for (BlockIndex b = first; b < first + count; ++b) lev_.on_block_erased(b);
      lev_.run(*this);  // must be a no-op, not infinite recursion
      ++depth_calls;
    }
    int depth_calls = 0;

   private:
    SwLeveler& lev_;
  };
  SwLeveler lev(8, config(2));
  ReentrantCleaner cleaner(lev);
  for (int i = 0; i < 100; ++i) lev.on_block_erased(0);
  lev.run(cleaner);
  EXPECT_GT(cleaner.depth_calls, 0);
}

TEST(SwLeveler, RandomSelectionStillPicksClearFlags) {
  LevelerConfig c = config(4);
  c.selection = LevelerConfig::Selection::random;
  SwLeveler lev(32, c);
  RecordingCleaner cleaner(lev);
  for (int i = 0; i < 64; ++i) lev.on_block_erased(5);
  lev.run(cleaner);
  ASSERT_FALSE(cleaner.collected.empty());
  for (const auto b : cleaner.collected) EXPECT_NE(b, 5u);
}

TEST(SwLeveler, RestoreStateAcceptsStaleValues) {
  SwLeveler lev(16, config(100));
  lev.on_block_erased(1);
  lev.on_block_erased(2);
  const auto words = lev.bet().bits().words();
  SwLeveler fresh(16, config(100));
  fresh.restore_state(55, 3, words);
  EXPECT_EQ(fresh.ecnt(), 55u);
  EXPECT_EQ(fresh.findex(), 3u);
  EXPECT_EQ(fresh.fcnt(), 2u);
  // Out-of-range findex is re-randomized rather than rejected (the paper's
  // step 6: a fresh findex is drawn at random; values "could tolerate some
  // errors"). snapshot_test covers the distribution; here just the range.
  fresh.restore_state(55, 9999, words);
  EXPECT_LT(fresh.findex(), 16u);
}

TEST(SwLeveler, ActivationsAndCollectionsAreCounted) {
  SwLeveler lev(8, config(4));
  RecordingCleaner cleaner(lev);
  for (int i = 0; i < 16; ++i) lev.on_block_erased(0);
  lev.run(cleaner);
  EXPECT_EQ(lev.stats().activations, 1u);
  EXPECT_EQ(lev.stats().collections_requested, cleaner.collected.size());
}

TEST(SwLeveler, RejectsThresholdBelowOne) {
  EXPECT_THROW(SwLeveler(8, config(0.5)), PreconditionError);
}

// Property: after any run() with a faithful cleaner, either the unevenness
// level is below T or the BET was just reset.
TEST(SwLeveler, PropertyRunRestoresInvariant) {
  for (const double t : {2.0, 5.0, 50.0}) {
    for (const std::uint32_t k : {0u, 1u, 3u}) {
      SwLeveler lev(64, config(t, k));
      RecordingCleaner cleaner(lev);
      Rng rng(static_cast<std::uint64_t>(t) * 31 + k);
      for (int round = 0; round < 200; ++round) {
        lev.on_block_erased(static_cast<BlockIndex>(rng.below(8)));  // skewed wear
        if (lev.needs_leveling()) lev.run(cleaner);
        ASSERT_TRUE(!lev.needs_leveling() || lev.fcnt() == 0)
            << "t=" << t << " k=" << k << " round=" << round;
      }
    }
  }
}

}  // namespace
}  // namespace swl::wear
