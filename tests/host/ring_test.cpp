// host::MpscRing / host::SpscRing — the lock-free rings under the queue
// pairs. Single-thread tests pin the bounded-FIFO contract (ordering,
// capacity rounding, full/empty, wraparound, and the SPSC ring's cached
// indices at the full and empty boundaries); the stress tests run real
// producer/consumer threads and verify nothing is lost, duplicated or
// reordered per producer (run under TSan in CI).
#include "host/ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

namespace swl::host {
namespace {

TEST(Ring, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ring_capacity_for(0), 2u);
  EXPECT_EQ(ring_capacity_for(1), 2u);
  EXPECT_EQ(ring_capacity_for(2), 2u);
  EXPECT_EQ(ring_capacity_for(3), 4u);
  EXPECT_EQ(ring_capacity_for(64), 64u);
  EXPECT_EQ(ring_capacity_for(65), 128u);
  EXPECT_EQ(MpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(9).capacity(), 16u);
}

TEST(Ring, MpscFifoSingleThread) {
  MpscRing<int> ring(8);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full
  for (int i = 0; i < 8; ++i) {
    int v = -1;
    ASSERT_TRUE(ring.try_pop(&v));
    EXPECT_EQ(v, i);
  }
  int v = -1;
  EXPECT_FALSE(ring.try_pop(&v));
  EXPECT_TRUE(ring.empty());
}

TEST(Ring, MpscWrapsAroundManyLaps) {
  MpscRing<std::uint64_t> ring(4);
  std::uint64_t next_out = 0;
  for (std::uint64_t in = 0; in < 1000; ++in) {
    ASSERT_TRUE(ring.try_push(in));
    if (in % 3 == 0) {  // drain lag so the indices lap the capacity
      std::uint64_t v = 0;
      while (ring.try_pop(&v)) EXPECT_EQ(v, next_out++);
    }
  }
  std::uint64_t v = 0;
  while (ring.try_pop(&v)) EXPECT_EQ(v, next_out++);
  EXPECT_EQ(next_out, 1000u);
}

TEST(Ring, SpscFifoAndFullEmpty) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  int v = -1;
  ASSERT_TRUE(ring.try_pop(&v));
  EXPECT_EQ(v, 0);
  ASSERT_TRUE(ring.try_push(4));  // freed one slot
  for (int want = 1; want <= 4; ++want) {
    ASSERT_TRUE(ring.try_pop(&v));
    EXPECT_EQ(v, want);
  }
  EXPECT_FALSE(ring.try_pop(&v));
}

TEST(Ring, SpscPushAtCapacityFailsUntilOnePop) {
  // Each lap fills the ring, so the producer's cached head is stale exactly
  // at the boundary: the failing push must reload it and still fail, and
  // the push after one pop must reload it and succeed.
  for (const std::size_t capacity : {std::size_t{2}, std::size_t{8}}) {
    SpscRing<std::uint64_t> ring(capacity);
    std::uint64_t in = 0;
    std::uint64_t out = 0;
    for (int lap = 0; lap < 50; ++lap) {
      while (ring.try_push(in)) ++in;
      ASSERT_EQ(in - out, capacity);
      EXPECT_FALSE(ring.try_push(in));  // still full on a second try
      std::uint64_t v = 0;
      ASSERT_TRUE(ring.try_pop(&v));
      EXPECT_EQ(v, out++);
      ASSERT_TRUE(ring.try_push(in++));  // exactly one slot came free
      EXPECT_FALSE(ring.try_push(in));
      // Drain part of the ring so the next lap starts mid-ring.
      for (std::size_t k = 0; k < capacity / 2 + 1; ++k) {
        ASSERT_TRUE(ring.try_pop(&v));
        EXPECT_EQ(v, out++);
      }
    }
  }
}

TEST(Ring, SpscEmptyAgreesWithTryPopOverManyLaps) {
  // A capacity-2 ring laps every other item, so both cached indices go
  // stale constantly; a FIFO model checks every step.
  SpscRing<std::uint64_t> ring(2);
  std::deque<std::uint64_t> model;
  std::uint64_t next = 0;
  std::uint64_t state = 0x9E3779B97F4A7C15u;
  for (int step = 0; step < 20'000; ++step) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    if (state % 2 == 0) {
      const bool pushed = ring.try_push(next);
      ASSERT_EQ(pushed, model.size() < ring.capacity());
      if (pushed) model.push_back(next++);
    } else {
      const bool was_empty = ring.empty();
      ASSERT_EQ(was_empty, model.empty());
      std::uint64_t v = 0;
      ASSERT_EQ(ring.try_pop(&v), !was_empty);
      if (!was_empty) {
        EXPECT_EQ(v, model.front());
        model.pop_front();
      }
      ASSERT_EQ(ring.empty(), model.empty());
    }
  }
  EXPECT_GT(next, 5'000u);
}

TEST(Ring, MpscMultiProducerStressKeepsEveryItemOncePerProducerInOrder) {
  constexpr unsigned kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  MpscRing<std::uint64_t> ring(64);
  // Each item encodes (producer, sequence); the consumer checks that every
  // producer's stream arrives gap-free and in order.
  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t received = 0;
  std::thread consumer([&] {
    while (received < kProducers * kPerProducer) {
      std::uint64_t item = 0;
      if (!ring.try_pop(&item)) {
        std::this_thread::yield();
        continue;
      }
      const std::uint64_t producer = item >> 32;
      const std::uint64_t seq = item & 0xFFFFFFFFu;
      ASSERT_LT(producer, kProducers);
      ASSERT_EQ(seq, next_seq[producer]);
      ++next_seq[producer];
      ++received;
    }
  });
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        while (!ring.try_push((p << 32) | i)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  for (unsigned p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

TEST(Ring, SpscStressTransfersStreamIntact) {
  constexpr std::uint64_t kItems = 200'000;
  SpscRing<std::uint64_t> ring(16);
  std::thread consumer([&] {
    for (std::uint64_t want = 0; want < kItems;) {
      std::uint64_t v = 0;
      if (!ring.try_pop(&v)) {
        std::this_thread::yield();
        continue;
      }
      ASSERT_EQ(v, want);
      ++want;
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i) {
    while (!ring.try_push(i)) std::this_thread::yield();
  }
  consumer.join();
}

TEST(Ring, SpscCapacityTwoStressRefreshesCachedIndicesEveryLap) {
  // With two slots the producer finds its cached head full and the consumer
  // its cached tail empty on nearly every lap, so each side reloads the
  // other's index constantly while the stream must still arrive intact.
  constexpr std::uint64_t kItems = 1'000'000;
  SpscRing<std::uint64_t> ring(2);
  std::thread consumer([&] {
    for (std::uint64_t want = 0; want < kItems;) {
      std::uint64_t v = 0;
      if (!ring.try_pop(&v)) {
        std::this_thread::yield();
        continue;
      }
      ASSERT_EQ(v, want);
      ++want;
    }
    EXPECT_TRUE(ring.empty());
  });
  for (std::uint64_t i = 0; i < kItems; ++i) {
    while (!ring.try_push(i)) std::this_thread::yield();
  }
  consumer.join();
}

}  // namespace
}  // namespace swl::host
