// host_mixed workload: one client driving the sharded host front-end
// (src/host) over block devices (src/bdev) on FTL + SW Leveler stacks.
//
// A run repeats rounds until its time box is spent. Each round formats a
// fresh two-shard device, writes every sector once, then runs
//   - phase A, a closed loop at queue depth 64, whose request rate is the
//     throughput metric, and
//   - phase B, an open loop at a fixed rate and queue depth 256. Each
//     request's latency runs from the moment it was due to be sent, so a
//     stall also charges the requests queued behind it.
// Rounds replay the same op stream, a pure function of the seed. A new round
// also gets new consumer threads, so a bad thread placement or a burst of
// load from the machine's other tenants spoils only some rounds (see Series
// for how they are summarized). The traced run replays a round's exact op
// sequence serially against a fresh stack to measure device service times.
#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bdev/block_device.hpp"
#include "core/rng.hpp"
#include "ftl/ftl.hpp"
#include "host/scheduler.hpp"
#include "stats/summary.hpp"
#include "swl/leveler.hpp"
#include "timed_leveler.hpp"
#include "workloads.hpp"

namespace swl::e2e {
namespace {

using bdev::SectorIndex;
using host::OpKind;

constexpr unsigned kShards = 2;
constexpr FlashGeometry kShardGeometry{
    .block_count = 256, .pages_per_block = 64, .page_size_bytes = 2048};
/// bench_host's leveling setting (paper T = 100 scaled to endurance 1000),
/// so SWL-Procedure runs often enough to contend with host I/O.
constexpr double kSwlThreshold = 10.0;
constexpr std::size_t kClosedQueueDepth = 64;
constexpr std::size_t kOpenQueueDepth = 256;
/// Phase B's offered load: about half of what phase A sustains on this mix
/// (1.3-1.6 M req/s on a 4-vCPU x86 guest, see README.md), so queues stay
/// short unless something stalls.
constexpr double kOpenRequestsPerSecond = 650'000.0;
/// Phase sizes of one round: about 0.5 s of phase A and 1 s of phase B.
constexpr std::uint64_t kClosedRequests = 750'000;
constexpr std::uint64_t kOpenRequests = 650'000;

[[nodiscard]] std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

struct Op {
  OpKind kind = OpKind::write;
  SectorIndex sector = 0;  ///< first sector
  std::array<std::uint64_t, 8> values{};
};

/// The request mix: 30% single-sector reads, 70% writes of which a quarter
/// are whole-page runs; 80% of requests go to the first 20% of pages.
class OpStream {
 public:
  OpStream(std::uint64_t seed, SectorIndex sectors, std::uint32_t spp, std::uint64_t lane_mask)
      : rng_(seed), pages_(sectors / spp), spp_(spp), lane_mask_(lane_mask) {}

  Op next() {
    Op op;
    const std::uint64_t hot = pages_ / 5;
    const std::uint64_t page =
        rng_.below(5) != 0 ? rng_.below(hot) : hot + rng_.below(pages_ - hot);
    if (rng_.below(10) < 3) {
      op.kind = OpKind::read;
      op.sector = page * spp_ + rng_.below(spp_);
    } else if (rng_.below(4) == 0) {
      op.kind = OpKind::write_run;
      op.sector = page * spp_;
      for (std::uint32_t i = 0; i < spp_; ++i) op.values[i] = rng_.next() & lane_mask_;
    } else {
      op.kind = OpKind::write;
      op.sector = page * spp_ + rng_.below(spp_);
      op.values[0] = rng_.next() & lane_mask_;
    }
    return op;
  }

 private:
  Rng rng_;
  std::uint64_t pages_;
  std::uint32_t spp_;
  std::uint64_t lane_mask_;
};

/// Counter snapshot of all shards, so a phase's work can be isolated.
struct Counters {
  tl::TlCounters tl;
  nand::NandCounters chip;
  bdev::BdevCounters bdev;
};

Counters counters_of(host::HostScheduler& sched) {
  Counters c;
  for (unsigned s = 0; s < sched.shard_count(); ++s) {
    bdev::BlockDevice& dev = sched.shard_device(s);
    const tl::TlCounters& t = dev.layer().counters();
    const nand::NandCounters& n = dev.layer().chip().counters();
    const bdev::BdevCounters& b = dev.counters();
    c.tl.host_writes += t.host_writes;
    c.tl.host_reads += t.host_reads;
    c.tl.gc_erases += t.gc_erases;
    c.tl.swl_erases += t.swl_erases;
    c.tl.gc_live_copies += t.gc_live_copies;
    c.tl.swl_live_copies += t.swl_live_copies;
    c.tl.fast_path_writes += t.fast_path_writes;
    c.tl.map_reads += t.map_reads;
    c.tl.map_writes += t.map_writes;
    c.chip.reads += n.reads;
    c.chip.programs += n.programs;
    c.chip.erases += n.erases;
    c.bdev.sector_writes += b.sector_writes;
    c.bdev.rmw_page_reads += b.rmw_page_reads;
    c.bdev.page_writes += b.page_writes;
  }
  return c;
}

Counters minus(const Counters& a, const Counters& b) {
  Counters d;
  d.tl.host_writes = a.tl.host_writes - b.tl.host_writes;
  d.tl.host_reads = a.tl.host_reads - b.tl.host_reads;
  d.tl.gc_erases = a.tl.gc_erases - b.tl.gc_erases;
  d.tl.swl_erases = a.tl.swl_erases - b.tl.swl_erases;
  d.tl.gc_live_copies = a.tl.gc_live_copies - b.tl.gc_live_copies;
  d.tl.swl_live_copies = a.tl.swl_live_copies - b.tl.swl_live_copies;
  d.tl.fast_path_writes = a.tl.fast_path_writes - b.tl.fast_path_writes;
  d.tl.map_reads = a.tl.map_reads - b.tl.map_reads;
  d.tl.map_writes = a.tl.map_writes - b.tl.map_writes;
  d.chip.reads = a.chip.reads - b.chip.reads;
  d.chip.programs = a.chip.programs - b.chip.programs;
  d.chip.erases = a.chip.erases - b.chip.erases;
  d.bdev.sector_writes = a.bdev.sector_writes - b.bdev.sector_writes;
  d.bdev.rmw_page_reads = a.bdev.rmw_page_reads - b.bdev.rmw_page_reads;
  d.bdev.page_writes = a.bdev.page_writes - b.bdev.page_writes;
  return d;
}

/// Two formatted FTL + SWL shards behind one scheduler, every sector written
/// once, plus the shadow copy of every sector's expected content.
struct Device {
  std::unique_ptr<host::HostScheduler> sched;
  std::vector<const TimedLeveler*> levelers;  // traced devices only
  std::vector<std::uint64_t> shadow;
  Counters after_fill;
  double setup_s = 0.0;

  void apply(const Op& op) {
    if (op.kind == OpKind::write) shadow[op.sector] = op.values[0];
    if (op.kind != OpKind::write_run) return;
    for (std::uint32_t i = 0; i < sched->sectors_per_page(); ++i) {
      shadow[op.sector + i] = op.values[i];
    }
  }

  [[nodiscard]] OpStream ops(std::uint64_t seed) const {
    return OpStream(seed, sched->sector_count(), sched->sectors_per_page(),
                    sched->shard_device(0).lane_mask());
  }
};

Device build_device(bool timed, Outcome& out) {
  Device d;
  const auto start = Clock::now();
  std::vector<host::ShardStack> stacks;
  for (unsigned s = 0; s < kShards; ++s) {
    host::ShardStack stack;
    nand::NandConfig nc;
    nc.geometry = kShardGeometry;
    nc.timing = default_timing(CellType::mlc_x2);
    stack.chip = std::make_unique<nand::NandChip>(nc);
    stack.layer = std::make_unique<ftl::Ftl>(*stack.chip, ftl::FtlConfig{});
    wear::LevelerConfig lc;
    lc.threshold = kSwlThreshold;
    auto leveler = std::make_unique<wear::SwLeveler>(kShardGeometry.block_count, lc);
    if (timed) {
      auto wrapper = std::make_unique<TimedLeveler>(std::move(leveler));
      d.levelers.push_back(wrapper.get());
      stack.layer->attach_leveler(std::move(wrapper));
    } else {
      stack.layer->attach_leveler(std::move(leveler));
    }
    stack.dev = std::make_unique<bdev::BlockDevice>(*stack.layer);
    stacks.push_back(std::move(stack));
  }
  d.sched = std::make_unique<host::HostScheduler>(
      std::move(stacks), host::HostConfig{.queue_depth = kOpenQueueDepth});
  host::HostScheduler& sched = *d.sched;

  // Precondition: write every sector once, whole pages at a time, straight
  // into each shard's device (the calling thread owns them until start()).
  const std::uint32_t spp = sched.sectors_per_page();
  d.shadow.assign(sched.sector_count(), 0);
  for (unsigned s = 0; s < kShards; ++s) {
    bdev::BlockDevice& dev = sched.shard_device(s);
    const SectorIndex local = dev.sector_count();
    const std::uint64_t first_value = s * local + 1;
    if (dev.write_sectors(0, local, first_value) != Status::ok) {
      out.fail("precondition fill of shard " + std::to_string(s) + " failed");
    }
    for (SectorIndex l = 0; l < local; ++l) {
      const SectorIndex global = ((l / spp) * kShards + s) * spp + l % spp;
      d.shadow[global] = (first_value + l) & dev.lane_mask();
    }
  }
  d.after_fill = counters_of(sched);
  d.setup_s = seconds_since(start);
  return d;
}

/// Phase B latency samples, in microseconds.
struct Samples {
  std::vector<float> write_us;
  std::vector<float> read_us;
  std::vector<float> lag_us;  ///< how late the generator sent each request
};

/// One client stream: submits ops, reaps and checks completions.
class Client {
 public:
  Client(Device& device, host::QueuePair& qp, Outcome& out)
      : device_(device), qp_(qp), out_(out), pending_(kPendingSlots) {}

  /// Submits `op`, due at `due_ns`; Status::busy when the ring is full.
  Status submit(const Op& op, std::uint64_t due_ns) {
    const auto start = timed_ ? Clock::now() : Clock::time_point{};
    host::RequestId id = 0;
    Status st = Status::ok;
    if (op.kind == OpKind::read) {
      st = qp_.submit_read(op.sector, host::SubmitMode::try_once, &id);
    } else if (op.kind == OpKind::write) {
      st = qp_.submit_write(op.sector, op.values[0], host::SubmitMode::try_once, &id);
    } else {
      st = qp_.submit_write_run(
          op.sector,
          std::span<const std::uint64_t>(op.values.data(), device_.sched->sectors_per_page()),
          host::SubmitMode::try_once, &id);
    }
    if (timed_) submit_ns_.push_back(static_cast<float>(ns_since(start)));
    if (st != Status::ok) return st;
    // A read must see every write submitted before it: requests to one page
    // run in submission order on its shard.
    pending_[id % kPendingSlots] =
        Pending{.id = id,
                .due_ns = due_ns,
                .expected = op.kind == OpKind::read ? device_.shadow[op.sector] : 0};
    device_.apply(op);
    return Status::ok;
  }

  /// Reaps what has completed; with `block`, waits for at least one.
  void reap(bool block) {
    const auto start = timed_ ? Clock::now() : Clock::time_point{};
    const std::size_t n = block ? qp_.wait(completions_) : qp_.poll(completions_);
    const std::uint64_t now = now_ns();
    if (timed_) {
      reap_ns_ += ns_since(start);
      reaped_ += n;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const host::Completion& c = completions_[i];
      const Pending& p = pending_[c.id % kPendingSlots];
      ++out_.attempted;
      if (p.id != c.id) {
        ++out_.failed;
        out_.fail("request " + std::to_string(c.id) + " outlived its bookkeeping slot");
        continue;
      }
      const bool wrong_value = c.op == OpKind::read && c.value != p.expected;
      if (c.status != Status::ok || wrong_value) ++out_.failed;
      if (samples_ != nullptr) {
        (c.op == OpKind::read ? samples_->read_us : samples_->write_us)
            .push_back(static_cast<float>(static_cast<double>(now - p.due_ns) / 1e3));
      }
    }
  }

  void drain() {
    while (inflight() > 0) reap(/*block=*/true);
  }

  [[nodiscard]] std::uint64_t inflight() const noexcept { return qp_.counters().inflight(); }

  void record_latency(Samples* samples) noexcept { samples_ = samples; }
  /// Traced rounds time every submit and reap call.
  void time_calls(bool on) noexcept { timed_ = on; }
  [[nodiscard]] std::vector<float>& submit_ns() noexcept { return submit_ns_; }
  [[nodiscard]] double reap_ns_mean() const noexcept {
    return ratio(static_cast<double>(reap_ns_), static_cast<double>(reaped_));
  }

 private:
  /// Completions can come back out of order across shards; a request id
  /// maps to slot id % kPendingSlots, and a mismatch on reap is reported.
  static constexpr std::size_t kPendingSlots = std::size_t{1} << 18;
  struct Pending {
    host::RequestId id = ~host::RequestId{0};
    std::uint64_t due_ns = 0;
    std::uint64_t expected = 0;
  };

  Device& device_;
  host::QueuePair& qp_;
  Outcome& out_;
  std::vector<Pending> pending_;
  std::array<host::Completion, kOpenQueueDepth> completions_{};
  Samples* samples_ = nullptr;
  bool timed_ = false;
  std::vector<float> submit_ns_;
  std::uint64_t reap_ns_ = 0;
  std::uint64_t reaped_ = 0;
};

/// Phase A: `requests` ops at queue depth 64, drained at the end.
void closed_loop(Client& client, OpStream& ops, std::uint64_t requests) {
  for (std::uint64_t i = 0; i < requests; ++i) {
    while (client.inflight() >= kClosedQueueDepth) client.reap(/*block=*/true);
    const Op op = ops.next();
    while (client.submit(op, now_ns()) == Status::busy) client.reap(/*block=*/true);
    if (i % 16 == 0) client.reap(/*block=*/false);
  }
  client.drain();
}

/// Phase B: `requests` ops sent on a fixed schedule at queue depth 256.
void open_loop(Client& client, OpStream& ops, std::uint64_t requests, Samples& samples,
               bool record_lag) {
  const double period_ns = 1e9 / kOpenRequestsPerSecond;
  const std::uint64_t start_ns = now_ns() + 100'000;
  client.record_latency(&samples);
  std::optional<Op> op;
  std::uint64_t sent = 0;
  while (sent < requests || client.inflight() > 0) {
    const std::uint64_t now = now_ns();
    while (sent < requests && client.inflight() < kOpenQueueDepth) {
      const std::uint64_t due =
          start_ns + static_cast<std::uint64_t>(static_cast<double>(sent) * period_ns);
      if (due > now) break;
      if (!op.has_value()) op = ops.next();
      if (client.submit(*op, due) != Status::ok) break;
      if (record_lag) {
        samples.lag_us.push_back(static_cast<float>(static_cast<double>(now - due) / 1e3));
      }
      op.reset();
      ++sent;
    }
    client.reap(/*block=*/false);
  }
  client.record_latency(nullptr);
}

/// After stop(): every sector must read back as the shadow says.
void read_back(Device& d, Outcome& out) {
  for (SectorIndex s = 0; s < d.shadow.size(); ++s) {
    std::uint64_t value = 0;
    const Status st = d.sched->read_sector_direct(s, &value);
    ++out.attempted;
    if (st != Status::ok || value != d.shadow[s]) ++out.failed;
  }
}

struct Sizes {
  std::uint64_t closed_requests = 0;
  std::uint64_t open_requests = 0;
};

/// Projected host page writes (millions) until the most-worn block reaches
/// its endurance, at the wear rate observed since format.
double lifetime_mwrites(host::HostScheduler& sched) {
  std::uint64_t writes = 0;
  std::uint32_t max_erases = 0;
  for (unsigned s = 0; s < sched.shard_count(); ++s) {
    const tl::TranslationLayer& layer = sched.shard_device(s).layer();
    writes += layer.counters().host_writes;
    for (const std::uint32_t c : layer.chip().erase_counts()) max_erases = std::max(max_erases, c);
  }
  const double endurance = default_timing(CellType::mlc_x2).endurance;
  return ratio(endurance * static_cast<double>(writes) / 1e6, static_cast<double>(max_erases));
}

/// Per-layer metrics of a traced round: the host front-end's own costs and
/// the device work behind them.
void add_traced_metrics(Device& d, Client& client, Samples& open, const Counters& work,
                        double phases_s, Series& series, Outcome& out) {
  host::HostScheduler& sched = *d.sched;
  series.add("host.submit_ns_p50", quantile(client.submit_ns(), 0.50));
  series.add("host.submit_ns_p99", quantile(client.submit_ns(), 0.99));
  series.add("host.reap_ns_mean", client.reap_ns_mean());
  series.add("host.gen_lag_us_p99", quantile(open.lag_us, 0.99));
  std::uint64_t executed = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t batches = 0;
  for (unsigned s = 0; s < kShards; ++s) {
    const host::ShardCounters& c = sched.shard_counters(s);
    executed += c.requests_executed;
    coalesced += c.coalesced_requests;
    batches += c.drain_batches;
  }
  const host::StreamCounters& stream = sched.queue_pair(0).counters();
  series.add("host.would_blocks_per_kreq", ratio(1000.0 * static_cast<double>(stream.would_blocks),
                                                 static_cast<double>(stream.completed)));
  series.add("host.coalesced_frac",
             ratio(static_cast<double>(coalesced), static_cast<double>(executed)));
  series.add("host.drain_batch_mean",
             ratio(static_cast<double>(executed), static_cast<double>(batches)));
  const auto sector_writes = static_cast<double>(work.bdev.sector_writes);
  series.add("bdev.rmw_reads_per_sector_write",
             ratio(static_cast<double>(work.bdev.rmw_page_reads), sector_writes));
  series.add("bdev.page_writes_per_sector_write",
             ratio(static_cast<double>(work.bdev.page_writes), sector_writes));

  Outcome device;
  set_device_metrics(device, work.tl, work.chip, default_timing(CellType::mlc_x2));
  SwlTimes swl;
  wear::LevelerStats stats;
  std::vector<std::uint32_t> erase_counts;
  for (unsigned s = 0; s < kShards; ++s) {
    swl.merge(d.levelers[s]->times());
    const wear::LevelerStats& ls = d.levelers[s]->stats();
    stats.activations += ls.activations;
    stats.collections_requested += ls.collections_requested;
    stats.bet_resets += ls.bet_resets;
    stats.stalls += ls.stalls;
    const auto& counts = sched.shard_device(s).layer().chip().erase_counts();
    erase_counts.insert(erase_counts.end(), counts.begin(), counts.end());
  }
  // Each shard's leveler runs on its own consumer thread.
  set_swl_times(device, swl, phases_s * 1e9 * kShards);
  set_swl_stats(device, stats);
  const stats::Summary wear = stats::summarize(erase_counts);
  device.set("swl.erase_cv", ratio(wear.stddev, wear.mean));
  for (const auto& [name, value] : device.values) series.add(name, value);
  for (std::string& problem : device.problems) out.fail(std::move(problem));
}

/// One round on a fresh device: phase A, then (with open requests) phase B,
/// stop, and the read-back of every sector.
void run_round(const RunOptions& opt, const Sizes& sizes, bool traced, Series& series,
               Outcome& out) {
  Device d = build_device(traced, out);
  series.add("setup_s", d.setup_s);
  host::HostScheduler& sched = *d.sched;
  host::QueuePair& qp = sched.open_queue_pair();
  sched.start();
  Client client(d, qp, out);
  OpStream ops = d.ops(opt.seed);
  client.time_calls(traced);
  auto start = Clock::now();
  closed_loop(client, ops, sizes.closed_requests);
  const double closed_s = seconds_since(start);
  series.add(traced ? "bench.traced_replay_s" : "bench.replay_s", closed_s);
  series.add(traced ? "traced_ops_per_s" : "ops_per_s",
             static_cast<double>(sizes.closed_requests) / closed_s);
  client.time_calls(false);
  Samples open;
  double open_s = 0.0;
  if (sizes.open_requests > 0) {
    start = Clock::now();
    open_loop(client, ops, sizes.open_requests, open, /*record_lag=*/traced);
    open_s = seconds_since(start);
  }
  sched.stop();
  const Counters work = minus(counters_of(sched), d.after_fill);
  read_back(d, out);
  if (sizes.open_requests == 0) return;

  std::vector<float> all = open.write_us;
  all.insert(all.end(), open.read_us.begin(), open.read_us.end());
  series.add("host.samples", static_cast<double>(all.size()));
  series.add("p50_us", quantile(all, 0.50));
  series.add("host.write_p50_us", quantile(open.write_us, 0.50));
  series.add("host.write_p99_us", quantile(open.write_us, 0.99));
  series.add("host.read_p50_us", quantile(open.read_us, 0.50));
  series.add("host.read_p99_us", quantile(open.read_us, 0.99));
  series.add("write_amp", ratio(static_cast<double>(work.chip.programs),
                                static_cast<double>(work.tl.host_writes)));
  series.add("lifetime_mwrites", lifetime_mwrites(sched));
  if (traced) add_traced_metrics(d, client, open, work, closed_s + open_s, series, out);
}

/// Device service times: a round's exact op sequence as direct serial
/// BlockDevice calls on a fresh stack, phase B's part timed. A write is a
/// GC write when the chip erased a block during the call.
void serial_replay(const RunOptions& opt, const Sizes& sizes, Series& series, Outcome& out) {
  Device d = build_device(/*timed=*/false, out);
  host::HostScheduler& sched = *d.sched;  // never started: this thread owns the stacks
  OpStream ops = d.ops(opt.seed);
  std::vector<float> write_us;
  std::vector<float> read_us;
  std::uint64_t gc_writes = 0;
  double gc_write_us = 0.0;
  const std::uint64_t total = sizes.closed_requests + sizes.open_requests;
  for (std::uint64_t i = 0; i < total; ++i) {
    const Op op = ops.next();
    bdev::BlockDevice& dev = sched.shard_device(sched.shard_of(op.sector));
    const SectorIndex local = sched.local_sector(op.sector);
    const std::uint64_t erases_before = dev.layer().chip().counters().erases;
    const auto start = Clock::now();
    std::uint64_t value = 0;
    Status st = Status::ok;
    if (op.kind == OpKind::read) {
      st = dev.read_sector(local, &value);
    } else if (op.kind == OpKind::write) {
      st = dev.write_sector(local, op.values[0]);
    } else {
      st = dev.write_sector_run(
          local, std::span<const std::uint64_t>(op.values.data(), sched.sectors_per_page()));
    }
    const auto us = static_cast<float>(static_cast<double>(ns_since(start)) / 1e3);
    ++out.attempted;
    if (st != Status::ok || (op.kind == OpKind::read && value != d.shadow[op.sector])) {
      ++out.failed;
    }
    d.apply(op);
    if (i < sizes.closed_requests) continue;
    if (op.kind == OpKind::read) {
      read_us.push_back(us);
      continue;
    }
    write_us.push_back(us);
    if (dev.layer().chip().counters().erases != erases_before) {
      ++gc_writes;
      gc_write_us += us;
    }
  }
  series.add("bdev.gc_write_frac",
             ratio(static_cast<double>(gc_writes), static_cast<double>(write_us.size())));
  series.add("bdev.gc_write_us_mean", ratio(gc_write_us, static_cast<double>(gc_writes)));
  series.add("bdev.write_us_p50", quantile(write_us, 0.50));
  series.add("bdev.write_us_p99", quantile(write_us, 0.99));
  series.add("bdev.read_us_p50", quantile(read_us, 0.50));
  series.add("bdev.read_us_p99", quantile(read_us, 0.99));
}

}  // namespace

Outcome run_host_mixed(const RunOptions& opt) {
  Outcome out;
  const double scale = opt.smoke ? 0.01 : 1.0;
  const Sizes full{.closed_requests = static_cast<std::uint64_t>(kClosedRequests * scale),
                   .open_requests = static_cast<std::uint64_t>(kOpenRequests * scale)};
  // A traced run alternates untraced phase-A-only rounds, the base of the
  // tracing overhead, with fully traced rounds.
  const Sizes base_only{.closed_requests = full.closed_requests};
  Series series;
  try {
    const auto start = Clock::now();
    if (opt.traced) serial_replay(opt, full, series, out);
    int rounds = 0;
    while (true) {
      const bool traced = opt.traced && rounds % 2 == 1;
      const auto round_start = Clock::now();
      run_round(opt, opt.traced && !traced ? base_only : full, traced, series, out);
      ++rounds;
      const double round_s = seconds_since(round_start);
      if (rounds < (opt.traced ? 2 : 1)) continue;
      if (opt.smoke || seconds_since(start) + round_s > opt.seconds) break;
    }
    series.set_medians(out);
    out.set("ops_per_s", series.max_of("ops_per_s"));
    out.set("p50_us", series.min_of("p50_us"));
    out.set("bench.episodes", rounds);
    out.set("host.queue_us_p99",
            series.median_of("host.write_p99_us") - series.median_of("bdev.write_us_p99"));
    out.set("bench.trace_overhead_frac",
            ratio(series.median_of("ops_per_s"), series.median_of("traced_ops_per_s")) - 1.0);
  } catch (const std::exception& e) {
    out.fail(std::string("host_mixed threw: ") + e.what());
    ++out.failed;
  }
  return out;
}

}  // namespace swl::e2e
