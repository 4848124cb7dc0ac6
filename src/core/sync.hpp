// Capability-annotated synchronization primitives.
//
// Thin wrappers over the standard primitives that carry the clang
// thread-safety attributes from core/annotations.hpp, so that lock discipline
// on the state they guard is verified at compile time (-Wthread-safety under
// clang; see CI's clang job). All concurrent code in the tree uses these —
// never raw std::mutex / std::condition_variable — so every piece of shared
// mutable state can be GUARDED_BY a named capability.
//
// ThreadChecker covers the complementary case: state that is *not* shared but
// thread-confined by design (a sweep point's NandChip, a Simulator's perf
// counters). It asserts, in debug builds, that all checked operations happen
// on the owning thread, turning an accidental cross-thread use into an
// immediate contract failure instead of a data race.
#ifndef SWL_CORE_SYNC_HPP
#define SWL_CORE_SYNC_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "core/annotations.hpp"

namespace swl {

/// A std::mutex carrying the `capability` annotation. Prefer MutexLock for
/// scoped acquisition; call lock()/unlock() directly only where RAII does not
/// fit (and the annotations will hold you to balancing them).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped mutex, for interop with CondVar only.
  [[nodiscard]] std::mutex& native() noexcept { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII scoped lock over core::Mutex (the annotated std::lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to core::Mutex.
///
/// wait() takes the Mutex directly and is annotated REQUIRES(mu): the analysis
/// verifies the caller holds the lock across the wait. Use an explicit
/// `while (!condition) cv.wait(mu);` loop rather than a predicate lambda —
/// clang's analysis cannot see through the lambda indirection, the loop it
/// verifies completely.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and re-acquires `mu` before returning.
  void wait(Mutex& mu) REQUIRES(mu) {
    // adopt_lock: `mu` is already held (enforced statically); release() keeps
    // the unique_lock from unlocking it again on destruction.
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// The processor's spin-loop hint (`pause` on x86-64; nothing elsewhere).
void cpu_relax() noexcept;

/// The CPUs this process may run on: the size of its affinity mask where the
/// platform reports one, else std::thread::hardware_concurrency(), and never
/// less than 1.
[[nodiscard]] unsigned usable_cpu_count() noexcept;

/// Futex-style parking for lock-free producer/consumer rings (an event count).
///
/// The problem it solves: a consumer draining a lock-free ring must sleep
/// when the ring is empty, and a producer must be able to wake it — without
/// putting a mutex on the producers' hot path. EventCount gives the standard
/// two-phase answer (as used by folly::EventCount and Linux futex users):
///
///   // waiter                                 // signaler
///   const std::uint64_t t = ec.prepare_wait();  push(item);
///   if (work_available()) {                     ec.notify();
///     ec.cancel_wait();
///   } else {
///     ec.wait(t);   // sleeps unless notify() ran since prepare_wait()
///   }
///
/// notify() is cheap when nobody waits: one seq_cst fence plus one atomic
/// load — no lock, no syscall. The seq_cst fences in prepare_wait() and
/// notify() close the classic lost-wakeup race (waiter checks the ring, then
/// signaler pushes and checks for waiters, each missing the other): with
/// both fences in the single total order, either the waiter's re-check sees
/// the push, or the signaler's waiter-check sees the waiter.
///
/// Spurious wakeups are allowed (wait() may return without a notify());
/// callers always re-check their condition in a loop. Supports any number of
/// concurrent waiters; notify() wakes them all.
///
/// Most callers want await(), which runs the whole dance — after an optional
/// wall-clock-bounded spin — behind one call.
class EventCount {
 public:
  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Blocks until `ready()` returns true, and never calls it again after
  /// that, so `ready` may claim what it finds (a ring slot, say).
  ///
  /// First polls `ready()` for up to `spin` of wall time: a hand-off that
  /// lands inside that window costs a few loads instead of a thread
  /// wake-up. Then it parks with the prepare / re-check / cancel / wait
  /// protocol, in a loop, so a notify() after the window still wakes it.
  /// A zero `spin` parks at once. Returns how many times the caller slept in
  /// wait() (0 when the spin or a re-check found `ready()` true).
  template <typename Ready>
  std::uint64_t await(Ready&& ready, std::chrono::nanoseconds spin) {
    if (ready()) return 0;
    if (spin.count() > 0) {
      // The clock is read once per few polls: a poll is a handful of loads
      // and one pause, a clock read costs about as much as several of them.
      constexpr int kPollsPerClockRead = 8;
      const auto deadline = std::chrono::steady_clock::now() + spin;
      do {
        for (int i = 0; i < kPollsPerClockRead; ++i) {
          cpu_relax();
          if (ready()) return 0;
        }
      } while (std::chrono::steady_clock::now() < deadline);
    }
    std::uint64_t parks = 0;
    for (;;) {
      const std::uint64_t ticket = prepare_wait();
      if (ready()) {
        cancel_wait();
        return parks;
      }
      wait(ticket);
      ++parks;
      if (ready()) return parks;
    }
  }

  /// Phase 1 of waiting: announce intent and take a ticket. The caller must
  /// re-check its wakeup condition after this call and either cancel_wait()
  /// (condition already true) or wait() with the ticket.
  [[nodiscard]] std::uint64_t prepare_wait() EXCLUDES(mu_) {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const MutexLock lock(mu_);
    return generation_;
  }

  /// Abandons a prepared wait (the re-check found the condition true).
  void cancel_wait() noexcept { waiters_.fetch_sub(1, std::memory_order_seq_cst); }

  /// Phase 2: blocks until a notify() issued after the ticket was taken (or
  /// a spurious wakeup; callers re-check in a loop either way).
  void wait(std::uint64_t ticket) EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      while (generation_ == ticket) cv_.wait(mu_);
    }
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Wakes every waiter that prepared before this call. Cheap (fence + one
  /// load, no lock) when nobody is waiting — safe to call per pushed item.
  void notify() EXCLUDES(mu_) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    {
      const MutexLock lock(mu_);
      ++generation_;
    }
    cv_.notify_all();
  }

 private:
  std::atomic<std::uint64_t> waiters_{0};
  Mutex mu_;
  CondVar cv_;
  std::uint64_t generation_ GUARDED_BY(mu_) = 0;
};

/// Debug-build thread-confinement assertion (compiled out under NDEBUG).
///
/// Most simulator state is deliberately unsynchronized: every sweep point
/// owns its SimClock, Rng, NandChip and Simulator, and the sweep runner's
/// determinism guarantee rests on that confinement. A ThreadChecker member
/// makes the confinement checkable: the first check() binds the owning
/// thread, every later check() asserts the same thread. An object handed to
/// another thread on purpose (e.g. a chip built on the main thread, then run
/// inside one sweep point) calls detach() at the handoff.
class ThreadChecker {
 public:
  /// Asserts the calling thread owns this object (binding it on first use).
  /// `what` names the operation for the failure message.
  void check(const char* what) const {
#ifndef NDEBUG
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};  // unbound
    if (owner_.compare_exchange_strong(expected, self, std::memory_order_relaxed)) return;
    if (expected != self) fail(what);
#else
    (void)what;
#endif
  }

  /// Unbinds: the next check() re-binds to its calling thread. Call at a
  /// deliberate ownership handoff.
  void detach() noexcept { owner_.store(std::thread::id{}, std::memory_order_relaxed); }

 private:
  [[noreturn]] static void fail(const char* what);

  mutable std::atomic<std::thread::id> owner_{};
};

}  // namespace swl

#endif  // SWL_CORE_SYNC_HPP
