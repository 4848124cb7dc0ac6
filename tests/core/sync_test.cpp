// core::Mutex / CondVar / EventCount / ThreadChecker behavior tests.
//
// The *static* guarantees (GUARDED_BY et al.) are exercised by clang's
// -Wthread-safety in CI; these tests pin the runtime behavior of the
// wrappers, which must be correct under every compiler.
#include "core/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/contracts.hpp"

namespace swl {
namespace {

TEST(Mutex, ProvidesExclusion) {
  Mutex mu;
  int counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10'000; ++i) {
        const MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 40'000);
}

TEST(Mutex, TryLockReflectsOwnership) {
  Mutex mu;
  ASSERT_TRUE(mu.try_lock());
  std::thread other([&] { EXPECT_FALSE(mu.try_lock()); });
  other.join();
  mu.unlock();
}

TEST(CondVar, WaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread signaller([&] {
    const MutexLock lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
  }
  signaller.join();
  SUCCEED();
}

TEST(EventCount, NotifyWakesAPreparedWaiter) {
  EventCount ec;
  std::atomic<bool> ready{false};
  std::thread waiter([&] {
    for (;;) {
      if (ready.load(std::memory_order_acquire)) return;
      const std::uint64_t ticket = ec.prepare_wait();
      if (ready.load(std::memory_order_acquire)) {
        ec.cancel_wait();
        return;
      }
      ec.wait(ticket);  // spurious wakeups allowed: loop re-checks
    }
  });
  ready.store(true, std::memory_order_release);
  ec.notify();
  waiter.join();
  SUCCEED();
}

TEST(EventCount, TicketTakenBeforeNotifyPreventsLostWakeup) {
  // The two-phase protocol's whole point: a notify issued *after*
  // prepare_wait must make the subsequent wait(ticket) return, even though
  // the waiter was not yet blocked in wait() when notify ran.
  EventCount ec;
  const std::uint64_t ticket = ec.prepare_wait();
  std::thread notifier([&] { ec.notify(); });
  notifier.join();
  ec.wait(ticket);  // must not hang
  SUCCEED();
}

TEST(EventCount, CancelWaitLeavesNotifyCheap) {
  EventCount ec;
  const std::uint64_t ticket = ec.prepare_wait();
  (void)ticket;
  ec.cancel_wait();
  ec.notify();  // no waiters: must be a no-op, not a hang or a crash
  SUCCEED();
}

TEST(EventCount, ParkedConsumerDrainsProducerStream) {
  // The scheduler's actual usage shape: a producer pushes work through an
  // unsynchronized-except-atomics mailbox and notifies; the consumer parks
  // with the prepare/re-check/wait dance whenever the mailbox is empty.
  constexpr std::uint64_t kItems = 50'000;
  EventCount ec;
  std::atomic<std::uint64_t> produced{0};
  std::uint64_t consumed = 0;
  std::thread consumer([&] {
    while (consumed < kItems) {
      if (produced.load(std::memory_order_acquire) > consumed) {
        ++consumed;
        continue;
      }
      const std::uint64_t ticket = ec.prepare_wait();
      if (produced.load(std::memory_order_acquire) > consumed) {
        ec.cancel_wait();
        continue;
      }
      ec.wait(ticket);
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i) {
    produced.fetch_add(1, std::memory_order_release);
    ec.notify();
  }
  consumer.join();
  EXPECT_EQ(consumed, kItems);
}

TEST(EventCount, AwaitReturnsAtOnceWhenAlreadyReady) {
  EventCount ec;
  int calls = 0;
  const std::uint64_t parks = ec.await(
      [&] {
        ++calls;
        return true;
      },
      std::chrono::seconds(10));
  EXPECT_EQ(parks, 0u);
  EXPECT_EQ(calls, 1);  // never called again once it returned true
}

TEST(EventCount, AwaitCatchesANotifyDuringTheSpinWithoutParking) {
  // A budget far longer than the hand-off: the spin sees the flag, so the
  // waiter never sleeps, and returns long before the budget runs out.
  EventCount ec;
  std::atomic<bool> ready{false};
  std::thread signaller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ready.store(true, std::memory_order_release);
    ec.notify();
  });
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t parks =
      ec.await([&] { return ready.load(std::memory_order_acquire); }, std::chrono::seconds(60));
  const auto waited = std::chrono::steady_clock::now() - start;
  signaller.join();
  EXPECT_EQ(parks, 0u);
  EXPECT_LT(waited, std::chrono::seconds(30));
}

TEST(EventCount, AwaitParksAfterTheBudgetAndANotifyWakesIt) {
  EventCount ec;
  std::atomic<bool> ready{false};
  std::thread signaller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ready.store(true, std::memory_order_release);
    ec.notify();
  });
  const std::uint64_t parks = ec.await([&] { return ready.load(std::memory_order_acquire); },
                                       std::chrono::microseconds(1));
  signaller.join();
  EXPECT_GE(parks, 1u);
  EXPECT_TRUE(ready.load());
}

TEST(EventCount, AwaitingProducerAndConsumerLoseNoWakeup) {
  // Both sides of a bounded mailbox wait with await(): the consumer for an
  // item, the producer for room. A budget of a few microseconds makes both
  // spins and parks frequent; a lost wake-up would hang the test.
  constexpr std::uint64_t kItems = 1'000'000;
  constexpr std::uint64_t kCapacity = 16;
  constexpr std::chrono::nanoseconds kSpin = std::chrono::microseconds(2);
  EventCount items_ec;
  EventCount room_ec;
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> consumed{0};
  std::thread consumer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      items_ec.await(
          [&] { return produced.load(std::memory_order_acquire) > i; }, kSpin);
      consumed.store(i + 1, std::memory_order_release);
      room_ec.notify();
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i) {
    room_ec.await(
        [&] { return i - consumed.load(std::memory_order_acquire) < kCapacity; }, kSpin);
    produced.store(i + 1, std::memory_order_release);
    items_ec.notify();
  }
  consumer.join();
  EXPECT_EQ(consumed.load(), kItems);
}

#ifndef NDEBUG
TEST(ThreadChecker, BindsOnFirstCheckAndRejectsOtherThreads) {
  ThreadChecker checker;
  checker.check("first use binds");
  checker.check("same thread is fine");
  std::thread other([&] {
    EXPECT_THROW(checker.check("cross-thread use"), InvariantError);
  });
  other.join();
}

TEST(ThreadChecker, DetachRebindsToTheNextThread) {
  ThreadChecker checker;
  checker.check("bind to main");
  checker.detach();
  std::thread other([&] {
    checker.check("rebinds here");
    checker.check("and stays");
  });
  other.join();
  EXPECT_THROW(checker.check("main lost ownership"), InvariantError);
}
#endif  // NDEBUG

}  // namespace
}  // namespace swl
