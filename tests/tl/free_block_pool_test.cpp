#include "tl/free_block_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "core/rng.hpp"

namespace swl::tl {
namespace {

TEST(FreeBlockPool, StartsEmpty) {
  FreeBlockPool pool(8);
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.policy(), AllocPolicy::fifo);
}

TEST(FreeBlockPool, FifoReturnsInFreedOrder) {
  FreeBlockPool pool(8, AllocPolicy::fifo);
  pool.add(5, 100);
  pool.add(1, 0);
  pool.add(3, 50);
  EXPECT_EQ(pool.take(), 5u);
  EXPECT_EQ(pool.take(), 1u);
  EXPECT_EQ(pool.take(), 3u);
  EXPECT_TRUE(pool.empty());
}

TEST(FreeBlockPool, LifoReturnsMostRecentlyFreed) {
  FreeBlockPool pool(8, AllocPolicy::lifo);
  pool.add(5, 100);
  pool.add(1, 0);
  pool.add(3, 50);
  EXPECT_EQ(pool.take(), 3u);
  EXPECT_EQ(pool.take(), 1u);
  EXPECT_EQ(pool.take(), 5u);
}

TEST(FreeBlockPool, PolicyNames) {
  EXPECT_EQ(to_string(AllocPolicy::fifo), "fifo");
  EXPECT_EQ(to_string(AllocPolicy::lifo), "lifo");
  EXPECT_EQ(to_string(AllocPolicy::coldest_first), "coldest_first");
}

TEST(FreeBlockPool, ColdestFirstPrefersLowestEraseCount) {
  FreeBlockPool pool(8, AllocPolicy::coldest_first);
  pool.add(0, 10);
  pool.add(1, 3);
  pool.add(2, 7);
  EXPECT_EQ(pool.take(), 1u);
  EXPECT_EQ(pool.take(), 2u);
  EXPECT_EQ(pool.take(), 0u);
  EXPECT_TRUE(pool.empty());
}

TEST(FreeBlockPool, ColdestFirstTiesBreakByBlockIndex) {
  FreeBlockPool pool(8, AllocPolicy::coldest_first);
  pool.add(5, 2);
  pool.add(3, 2);
  EXPECT_EQ(pool.take(), 3u);
  EXPECT_EQ(pool.take(), 5u);
}

TEST(FreeBlockPool, ContainsTracksMembership) {
  for (const auto policy : {AllocPolicy::fifo, AllocPolicy::coldest_first}) {
    FreeBlockPool pool(8, policy);
    pool.add(4, 1);
    EXPECT_TRUE(pool.contains(4));
    EXPECT_FALSE(pool.contains(5));
    (void)pool.take();
    EXPECT_FALSE(pool.contains(4));
  }
}

TEST(FreeBlockPool, RemoveSpecificBlock) {
  for (const auto policy : {AllocPolicy::fifo, AllocPolicy::coldest_first}) {
    FreeBlockPool pool(8, policy);
    pool.add(1, 5);
    pool.add(2, 1);
    pool.remove(2);
    EXPECT_FALSE(pool.contains(2));
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.take(), 1u);
    EXPECT_TRUE(pool.empty());
  }
}

TEST(FreeBlockPool, FifoRemoveThenReAddKeepsConsistency) {
  // The SW Leveler erases a pooled block in place and re-pools it (remove,
  // erase, add): it was freed last, so it must come out last.
  FreeBlockPool pool(8, AllocPolicy::fifo);
  pool.add(0, 0);
  pool.add(1, 0);
  pool.add(2, 0);
  pool.remove(0);
  pool.add(0, 1);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.take(), 1u);
  EXPECT_EQ(pool.take(), 2u);
  EXPECT_EQ(pool.take(), 0u);
  EXPECT_TRUE(pool.empty());
}

TEST(FreeBlockPool, ColdestReAddWithNewCountReorders) {
  FreeBlockPool pool(8, AllocPolicy::coldest_first);
  pool.add(1, 1);
  pool.add(2, 2);
  pool.remove(1);
  pool.add(1, 99);  // block 1 got erased again, now hotter
  EXPECT_EQ(pool.take(), 2u);
}

TEST(FreeBlockPool, DoubleAddThrows) {
  FreeBlockPool pool(8);
  pool.add(1, 1);
  EXPECT_THROW(pool.add(1, 2), PreconditionError);
}

TEST(FreeBlockPool, TakeFromEmptyThrows) {
  FreeBlockPool pool(8);
  EXPECT_THROW((void)pool.take(), PreconditionError);
}

TEST(FreeBlockPool, RemoveAbsentThrows) {
  FreeBlockPool pool(8);
  EXPECT_THROW(pool.remove(0), PreconditionError);
}

TEST(FreeBlockPool, OutOfRangeThrows) {
  FreeBlockPool pool(8);
  EXPECT_THROW(pool.add(8, 0), PreconditionError);
  EXPECT_THROW((void)pool.contains(8), PreconditionError);
}

// Property: coldest_first allocation order is a non-decreasing erase-count
// sequence.
TEST(FreeBlockPool, PropertyColdestAllocationIsSortedByWear) {
  Rng rng(5);
  FreeBlockPool pool(256, AllocPolicy::coldest_first);
  std::vector<std::uint32_t> count_of(256);
  for (BlockIndex b = 0; b < 256; ++b) {
    count_of[b] = static_cast<std::uint32_t>(rng.below(1000));
    pool.add(b, count_of[b]);
  }
  std::uint32_t last = 0;
  std::size_t taken = 0;
  while (!pool.empty()) {
    const BlockIndex b = pool.take();
    ASSERT_GE(count_of[b], last);
    last = count_of[b];
    ++taken;
  }
  EXPECT_EQ(taken, 256u);
}

// Property: under random add/take/remove interleavings, every block is
// handed out at most once between adds and the size never drifts.
TEST(FreeBlockPool, PropertyRandomOpsKeepMembershipExact) {
  for (const auto policy :
       {AllocPolicy::fifo, AllocPolicy::lifo, AllocPolicy::coldest_first}) {
    Rng rng(11);
    FreeBlockPool pool(64, policy);
    std::vector<bool> pooled(64, false);
    std::size_t pooled_count = 0;
    for (int step = 0; step < 20'000; ++step) {
      const auto op = rng.below(3);
      if (op == 0) {  // add a random non-pooled block
        const auto b = static_cast<BlockIndex>(rng.below(64));
        if (!pooled[b]) {
          pool.add(b, static_cast<std::uint32_t>(rng.below(100)));
          pooled[b] = true;
          ++pooled_count;
        }
      } else if (op == 1 && pooled_count > 0) {  // take
        const BlockIndex b = pool.take();
        ASSERT_TRUE(pooled[b]);
        pooled[b] = false;
        --pooled_count;
      } else if (op == 2 && pooled_count > 0) {  // remove a random pooled block
        for (BlockIndex b = 0; b < 64; ++b) {
          if (pooled[b]) {
            pool.remove(b);
            pooled[b] = false;
            --pooled_count;
            break;
          }
        }
      }
      ASSERT_EQ(pool.size(), pooled_count);
    }
  }
}

// List model: every policy hands blocks out in exactly the order a plain
// list of (block, erase count) entries predicts, across 2,000 random
// add/remove/take sequences per policy.
TEST(FreeBlockPool, PropertyMatchesListModel) {
  struct Entry {
    BlockIndex block;
    std::uint32_t count;
  };
  for (const auto policy :
       {AllocPolicy::fifo, AllocPolicy::lifo, AllocPolicy::coldest_first}) {
    SCOPED_TRACE(std::string(to_string(policy)));
    Rng rng(23);
    for (int sequence = 0; sequence < 2'000; ++sequence) {
      constexpr BlockIndex kBlocks = 12;
      FreeBlockPool pool(kBlocks, policy);
      std::vector<Entry> model;  // in freed order
      const auto pooled = [&](BlockIndex b) {
        return std::any_of(model.begin(), model.end(), [b](const Entry& e) { return e.block == b; });
      };
      for (int step = 0; step < 40; ++step) {
        const auto op = rng.below(3);
        if (op == 0) {
          const auto b = static_cast<BlockIndex>(rng.below(kBlocks));
          if (pooled(b)) continue;
          const auto count = static_cast<std::uint32_t>(rng.below(4));
          pool.add(b, count);
          model.push_back({b, count});
        } else if (op == 1 && !model.empty()) {
          auto next = model.begin();  // fifo: least recently freed
          if (policy == AllocPolicy::lifo) {
            next = model.end() - 1;
          } else if (policy == AllocPolicy::coldest_first) {
            next = std::min_element(model.begin(), model.end(), [](const Entry& a, const Entry& b) {
              return a.count != b.count ? a.count < b.count : a.block < b.block;
            });
          }
          ASSERT_EQ(pool.take(), next->block) << "sequence " << sequence << " step " << step;
          model.erase(next);
        } else if (op == 2 && !model.empty()) {
          const auto victim = model.begin() + static_cast<std::ptrdiff_t>(rng.below(model.size()));
          pool.remove(victim->block);
          model.erase(victim);
        }
        ASSERT_EQ(pool.size(), model.size());
        for (BlockIndex b = 0; b < kBlocks; ++b) ASSERT_EQ(pool.contains(b), pooled(b));
      }
    }
  }
}

}  // namespace
}  // namespace swl::tl
