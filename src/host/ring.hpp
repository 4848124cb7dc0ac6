// Bounded lock-free rings for the host front-end's queue pairs.
//
// Two shapes, matching how an NVMe-style host stack moves requests:
//
//   MpscRing — the *submission* side: many client threads push, exactly one
//   consumer (the shard's device thread) pops. Vyukov's bounded queue with
//   per-cell sequence numbers; producers contend only on one fetch-add-like
//   CAS over the tail, the consumer runs CAS-free.
//
//   SpscRing — the *completion* side: one producer (a shard consumer), one
//   consumer (the owning client thread). Plain head/tail indices with
//   acquire/release pairing; no CAS anywhere. Each side caches the other's
//   index and reloads it only when the cached copy says full (producer) or
//   empty (consumer), so a steady stream touches the shared line rarely.
//
// Both are fixed-capacity (rounded up to a power of two), never allocate
// after construction, and fail pushes instead of blocking — parking and
// backpressure policy live one layer up (core::EventCount in the scheduler).
// Elements must be trivially copyable: the rings move request *handles*
// (pointers/indices), never payloads.
#ifndef SWL_HOST_RING_HPP
#define SWL_HOST_RING_HPP

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/contracts.hpp"

namespace swl::host {

/// Smallest power of two >= n (and >= 2, so head/tail arithmetic works).
[[nodiscard]] constexpr std::size_t ring_capacity_for(std::size_t n) noexcept {
  return std::bit_ceil(n < 2 ? std::size_t{2} : n);
}

/// Bounded multi-producer single-consumer ring (Vyukov bounded queue).
///
/// Every cell carries a sequence number encoding its state relative to the
/// head/tail counters: `seq == pos` means free for the producer claiming
/// position `pos`; `seq == pos + 1` means filled and ready for the consumer
/// at position `pos`. A producer claims a position with a CAS on enqueue_,
/// writes the value, then publishes by storing `pos + 1` with release; the
/// consumer reads with acquire and releases the cell for the next lap by
/// storing `pos + capacity`.
template <typename T>
class MpscRing {
  static_assert(std::is_trivially_copyable_v<T>, "rings move handles, not payloads");

 public:
  explicit MpscRing(std::size_t capacity)
      : cells_(ring_capacity_for(capacity)), mask_(cells_.size() - 1) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return cells_.size(); }

  /// Producer side (any thread): enqueues `value`, or returns false when the
  /// ring is full. Lock-free: a stalled producer can delay only its own cell.
  [[nodiscard]] bool try_push(T value) noexcept {
    std::size_t pos = enqueue_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
      const auto diff =
          static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          cell.value = value;
          cell.sequence.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded pos; retry with the fresh position.
      } else if (diff < 0) {
        return false;  // the cell still holds last lap's value: ring full
      } else {
        pos = enqueue_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer side (one thread only): dequeues into `*value`, or returns
  /// false when the ring is empty.
  [[nodiscard]] bool try_pop(T* value) noexcept {
    const std::size_t pos = dequeue_;
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
    const auto diff =
        static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1);
    if (diff < 0) return false;  // not yet published: empty (or mid-publish)
    *value = cell.value;
    cell.sequence.store(pos + mask_ + 1, std::memory_order_release);
    dequeue_ = pos + 1;
    return true;
  }

  /// Consumer-side emptiness probe (exact for the consumer: no other thread
  /// pops). Used for the park/re-check dance; a concurrent push may make it
  /// stale immediately, which the EventCount protocol tolerates.
  [[nodiscard]] bool empty() const noexcept {
    const Cell& cell = cells_[dequeue_ & mask_];
    const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
    return static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(dequeue_ + 1) < 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence;
    T value;
  };

  std::vector<Cell> cells_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> enqueue_{0};  // producers
  alignas(64) std::size_t dequeue_ = 0;              // consumer-owned
};

/// Bounded single-producer single-consumer ring: the classic two-index
/// design. The producer owns tail_, the consumer owns head_; each reads the
/// other's index with acquire and publishes its own with release.
///
/// Each side also keeps a private copy of the other side's index (the
/// producer's head_cache_, the consumer's tail_cache_) on its own cache line.
/// The copy lags the real index, which only ever grows, so it is
/// conservative: a producer that sees room in head_cache_ has room, and a
/// consumer that sees items below tail_cache_ has them. The shared index is
/// reloaded only when the copy says full (producer) or empty (consumer).
template <typename T>
class SpscRing {
  static_assert(std::is_trivially_copyable_v<T>, "rings move handles, not payloads");

 public:
  explicit SpscRing(std::size_t capacity)
      : slots_(ring_capacity_for(capacity)), mask_(slots_.size() - 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Producer side (one thread): false when full.
  [[nodiscard]] bool try_push(T value) noexcept {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ == slots_.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ == slots_.size()) return false;
    }
    slots_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side (one thread): false when empty.
  [[nodiscard]] bool try_pop(T* value) noexcept {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    *value = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer-side emptiness probe: exact for the consumer when it returns
  /// (no other thread pops), though a concurrent push may make it stale at
  /// once. It reads tail_ only when the cached copy has run out.
  [[nodiscard]] bool empty() const noexcept {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    return head == tail_cache_ && head == tail_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer-owned
  std::size_t head_cache_ = 0;                    // producer's copy of head_
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer-owned
  std::size_t tail_cache_ = 0;                    // consumer's copy of tail_
};

}  // namespace swl::host

#endif  // SWL_HOST_RING_HPP
