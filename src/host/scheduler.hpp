// Sharded asynchronous request scheduler over the block device — the host
// front-end (ROADMAP item 2).
//
// The translation layers are deliberately thread-confined (ThreadChecker,
// PR 5): one TranslationLayer must only ever be driven by one thread at a
// time. This scheduler serves many concurrent client threads anyway, the way
// an NVMe-style host stack does, by never sharing a layer at all:
//
//   client threads                  consumer threads (one per shard)
//   ──────────────                  ────────────────────────────────
//   QueuePair::submit_* ──route──▶  MpscRing ──▶ drain loop ──▶ BlockDevice
//        ▲                          (lock-free)   (coalesce)     + TL + chip
//        └──── SpscRing ◀── completion push ◀─────┘              (exclusively
//              (per shard)                                        owned)
//
// - The global sector space is page-striped across N shards; every request
//   is routed to the shard owning its page, so all sectors of one page (and
//   therefore every read-modify-write) land on one consumer.
// - Each shard's consumer thread exclusively owns one BlockDevice +
//   TranslationLayer + NandChip stack; ownership moves via the existing
//   ThreadChecker detach_owner_thread() handoff at start()/stop(). There are
//   no locks on the request hot path — only the ring CAS and, when a side
//   must wait, core::EventCount::await: a short spin (only when every
//   front-end thread can have a CPU of its own; see spin_budget_for), then
//   parking.
// - A QueuePair is one client stream: a fixed pool of request slots (the
//   queue depth), per-shard SPSC completion rings, per-stream QoS counters
//   and per-op latency histograms. One QueuePair belongs to one client
//   thread (ThreadChecker-confined).
// - Backpressure is explicit: a full submission ring either returns
//   Status::busy (SubmitMode::try_once) or parks the client until the
//   consumer drains (SubmitMode::blocking); an exhausted queue depth always
//   returns Status::busy — the client must reap completions to free slots.
// - The consumer's drain loop coalesces adjacent-sector writes into
//   BlockDevice::write_sector_run calls, feeding the whole-page token fast
//   path that skips per-sector read-modify-writes (HostConfig::
//   coalesce_writes; off = every request executes exactly as submitted).
//
// Determinism canary: with one client stream, one shard and coalescing off,
// the consumer executes the exact call sequence the client submitted, so the
// whole front-end is bit-identical — content, BdevCounters, TlCounters and
// per-block erase counts — to direct serial BlockDevice calls (pinned by
// tests/host/host_canary_test.cpp, cross-checked by swl_fuzz --host-smoke).
#ifndef SWL_HOST_SCHEDULER_HPP
#define SWL_HOST_SCHEDULER_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "bdev/block_device.hpp"
#include "core/status.hpp"
#include "core/sync.hpp"
#include "host/latency_histogram.hpp"
#include "host/ring.hpp"
#include "nand/nand_chip.hpp"
#include "tl/translation_layer.hpp"

namespace swl::host {

using bdev::SectorIndex;

/// One shard's device stack, owned by the scheduler (and, while running,
/// exclusively driven by that shard's consumer thread). All stacks of one
/// scheduler must have identical geometry.
struct ShardStack {
  std::unique_ptr<nand::NandChip> chip;
  std::unique_ptr<tl::TranslationLayer> layer;
  std::unique_ptr<bdev::BlockDevice> dev;
};

struct HostConfig {
  /// Per-shard submission ring capacity (rounded up to a power of two).
  std::size_t submission_ring_capacity = 1024;
  /// Per-stream maximum in-flight requests; also sizes the completion rings
  /// so a completion push can never fail.
  std::size_t queue_depth = 64;
  /// Coalesce adjacent-sector writes inside the consumer drain loop into
  /// write_sector_run calls (whole pages skip the read-modify-write). Turn
  /// off for the bit-identical serial canary.
  bool coalesce_writes = true;
};

enum class OpKind : std::uint8_t { write, read, write_run };

enum class SubmitMode : std::uint8_t {
  /// Park on a full submission ring until the consumer drains.
  blocking,
  /// Return Status::busy instead of waiting.
  try_once,
};

/// Per-stream id of a submitted request (monotonic from 0).
using RequestId = std::uint64_t;

struct Completion {
  RequestId id = 0;
  OpKind op = OpKind::write;
  Status status = Status::ok;
  /// Read result (reads only).
  std::uint64_t value = 0;
  /// Submit to the end of the poll/wait call that returned it: the
  /// end-to-end time the client observed. Every completion one call returns
  /// shares that call's single reap-time clock reading.
  std::uint64_t latency_ns = 0;
};

/// Per-stream QoS counters (client-thread-confined, like the stream itself).
struct StreamCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Submissions rejected with Status::busy (queue depth exhausted, or a
  /// full ring under SubmitMode::try_once).
  std::uint64_t would_blocks = 0;
  /// Times a blocking submission found the submission ring full and had to
  /// wait for the consumer to drain it.
  std::uint64_t ring_full_waits = 0;

  [[nodiscard]] std::uint64_t inflight() const noexcept { return submitted - completed; }
};

/// Per-shard consumer counters (consumer-thread-confined; read after stop()).
struct ShardCounters {
  std::uint64_t requests_executed = 0;
  std::uint64_t drain_batches = 0;
  /// Multi-request adjacent-write runs merged into one write_sector_run.
  std::uint64_t coalesced_runs = 0;
  /// Requests folded into those runs (each run covers >= 2).
  std::uint64_t coalesced_requests = 0;
  /// Times the consumer slept on an empty ring (a spin that caught the next
  /// request does not count).
  std::uint64_t parks = 0;
};

/// How long a front-end thread polls before it parks. Bounded by wall time,
/// not by a poll count, because `pause` costs 10–140 cycles depending on the
/// core. Sized on the e2e host_mixed workload (seed 7, two 10 s runs per
/// budget, shared 4-vCPU Xeon VM), where a device write takes 0.12 µs and
/// the median request latency was: park at once 9.5–15.9 µs (a thread
/// wake-up per request), 2 µs spin 9.8–10.7, 5 µs 3.3–4.8, 20 µs 1.45–1.51,
/// 100 µs 1.35–1.41. 20 µs takes nearly all of the gain at a fifth of the
/// idle cost per empty-ring episode.
inline constexpr std::chrono::nanoseconds kSpinBudget{20'000};

/// The spin budget for a front-end with `consumers` shard threads and
/// `queue_pairs` client streams on `cpus` usable CPUs: kSpinBudget when every
/// one of those threads can have a CPU of its own (consumers + queue_pairs <
/// cpus), else zero — a spinning thread must never hold a CPU that the thread
/// it waits for needs. A 1-CPU host never spins.
[[nodiscard]] std::chrono::nanoseconds spin_budget_for(std::size_t consumers,
                                                       std::size_t queue_pairs,
                                                       unsigned cpus) noexcept;

class HostScheduler;

/// One client stream. Obtain from HostScheduler::open_queue_pair() before
/// start(); use from exactly one client thread (checked in debug builds).
class QueuePair {
 public:
  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  // -- asynchronous API ------------------------------------------------------

  /// Submits one sector write. Status::ok on acceptance (completion arrives
  /// via poll/wait), Status::busy on backpressure (see SubmitMode).
  Status submit_write(SectorIndex sector, std::uint64_t value, SubmitMode mode,
                      RequestId* id = nullptr);

  /// Submits one sector read; the value arrives in the Completion.
  Status submit_read(SectorIndex sector, SubmitMode mode, RequestId* id = nullptr);

  /// Submits a run of consecutive sector writes with explicit values. The
  /// run must stay within one logical page (lane_of(first) + values.size()
  /// <= sectors_per_page) so it routes to a single shard; write_sectors()
  /// does the page splitting for arbitrary spans.
  Status submit_write_run(SectorIndex first, std::span<const std::uint64_t> values,
                          SubmitMode mode, RequestId* id = nullptr);

  /// Reaps available completions into `out` without blocking; returns how
  /// many were written.
  std::size_t poll(std::span<Completion> out);

  /// Like poll, but parks until at least one completion is available.
  /// Returns 0 only when nothing is in flight.
  std::size_t wait(std::span<Completion> out);

  // -- synchronous conveniences ---------------------------------------------
  // Submit + wait for that one request. Require an otherwise idle stream
  // (inflight() == 0): mixing sync calls into a pipelined stream would have
  // to reorder other requests' completions.

  Status write_sector(SectorIndex sector, std::uint64_t value);
  Status read_sector(SectorIndex sector, std::uint64_t* value);
  /// Writes `count` consecutive sectors with values from `first_value`
  /// onward, split into per-page run requests (possibly across shards).
  Status write_sectors(SectorIndex first, std::uint64_t count, std::uint64_t first_value);

  // -- observability ---------------------------------------------------------

  [[nodiscard]] const StreamCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const LatencyHistogram& write_latency() const noexcept { return write_hist_; }
  [[nodiscard]] const LatencyHistogram& read_latency() const noexcept { return read_hist_; }
  [[nodiscard]] unsigned index() const noexcept { return index_; }

 private:
  friend class HostScheduler;

  /// One request slot. Slots start on a cache line, and every field a
  /// single-sector request uses sits in the first line, so such a request
  /// moves one line between the client and the consumer; run_values, used
  /// only by write runs, comes last.
  struct alignas(64) Request {
    QueuePair* owner = nullptr;
    RequestId id = 0;
    SectorIndex local_first = 0;
    std::uint64_t value = 0;  // write value; read result (consumer-written)
    std::uint64_t submit_ns = 0;
    std::uint32_t slot = 0;
    Status status = Status::ok;
    std::uint16_t shard = 0;
    OpKind op = OpKind::write;
    std::uint8_t run_count = 1;
    std::array<std::uint64_t, 8> run_values{};  // sectors_per_page <= 8
  };
  static_assert(alignof(Request) == 64 && sizeof(Request) % 64 == 0,
                "request slots must not share cache lines");
  static_assert(offsetof(Request, run_values) <= 64,
                "a single-sector request's fields must fit the slot's first line");

  QueuePair(HostScheduler& sched, unsigned index, unsigned shards, std::size_t queue_depth);

  Status submit(OpKind op, SectorIndex first, std::uint64_t value,
                std::span<const std::uint64_t> run_values, SubmitMode mode, RequestId* id);
  [[nodiscard]] bool any_completion_visible() const noexcept;

  HostScheduler& sched_;
  unsigned index_;
  std::vector<Request> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// One SPSC completion ring per shard: its producer is that shard's
  /// consumer thread, its consumer is this stream's client thread.
  std::vector<std::unique_ptr<SpscRing<std::uint32_t>>> completion_rings_;
  EventCount completion_ec_;
  StreamCounters counters_;
  LatencyHistogram write_hist_;
  LatencyHistogram read_hist_;
  RequestId next_id_ = 0;
  std::size_t poll_cursor_ = 0;  // round-robin start across completion rings
  ThreadChecker checker_;
};

class HostScheduler {
 public:
  /// Takes ownership of one identical-geometry stack per shard. The global
  /// sector space (sector_count() = shards * per-shard sectors) is
  /// page-striped: global page p lives on shard p % shards.
  HostScheduler(std::vector<ShardStack> stacks, HostConfig config);

  /// Stops (draining in-flight requests) if still running.
  ~HostScheduler();

  HostScheduler(const HostScheduler&) = delete;
  HostScheduler& operator=(const HostScheduler&) = delete;

  /// Opens a client stream. Main thread, before start() only.
  [[nodiscard]] QueuePair& open_queue_pair();

  /// Spawns the consumer threads and hands each shard's stack to its
  /// consumer (ThreadChecker detach handoff). Decides the spin budget once,
  /// from the thread count and usable_cpu_count(). Main thread, once.
  void start();

  /// Drains every submitted request, joins the consumers, and hands the
  /// stacks back to the calling thread. Clients must have finished
  /// submitting. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept { return started_ && !stopped_; }

  /// How long a front-end thread spins before it parks (set by start()).
  [[nodiscard]] std::chrono::nanoseconds spin_budget() const noexcept { return spin_; }

  // -- geometry / routing ----------------------------------------------------

  [[nodiscard]] unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }
  [[nodiscard]] SectorIndex sector_count() const noexcept { return sector_count_; }
  [[nodiscard]] std::uint32_t sectors_per_page() const noexcept { return sectors_per_page_; }

  [[nodiscard]] unsigned shard_of(SectorIndex sector) const noexcept {
    return static_cast<unsigned>((sector / sectors_per_page_) % shards_.size());
  }
  [[nodiscard]] SectorIndex local_sector(SectorIndex sector) const noexcept {
    const SectorIndex page = sector / sectors_per_page_;
    const SectorIndex lane = sector % sectors_per_page_;
    return (page / shards_.size()) * sectors_per_page_ + lane;
  }

  // -- post-stop inspection --------------------------------------------------

  /// Routed read through the owning shard's device. Calling thread must own
  /// the stacks (i.e. before start() or after stop()).
  Status read_sector_direct(SectorIndex sector, std::uint64_t* value);

  [[nodiscard]] bdev::BlockDevice& shard_device(unsigned shard) {
    return *shards_[shard]->stack.dev;
  }
  [[nodiscard]] const ShardCounters& shard_counters(unsigned shard) const noexcept {
    return shards_[shard]->counters;
  }
  [[nodiscard]] QueuePair& queue_pair(std::size_t i) noexcept { return *queue_pairs_[i]; }
  [[nodiscard]] const HostConfig& config() const noexcept { return config_; }

 private:
  friend class QueuePair;

  struct Shard {
    Shard(unsigned idx, ShardStack s, std::size_t ring_capacity)
        : index(idx), stack(std::move(s)), ring(ring_capacity) {}

    unsigned index;
    ShardStack stack;
    MpscRing<QueuePair::Request*> ring;
    EventCount work_ec;   // consumer parks here when the ring is empty
    EventCount space_ec;  // blocking producers park here when it is full
    ShardCounters counters;
    std::thread thread;
  };

  /// Requests popped per drain pass; also the coalescing window.
  static constexpr std::size_t kDrainBatch = 128;

  void consumer_loop(Shard& shard);
  void execute_batch(Shard& shard, std::span<QueuePair::Request* const> batch,
                     std::vector<std::uint64_t>& run_values);
  void complete(Shard& shard, QueuePair::Request& request);

  HostConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<QueuePair>> queue_pairs_;
  std::uint32_t sectors_per_page_ = 0;
  SectorIndex sector_count_ = 0;
  std::atomic<bool> stop_{false};
  std::chrono::nanoseconds spin_{0};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace swl::host

#endif  // SWL_HOST_SCHEDULER_HPP
