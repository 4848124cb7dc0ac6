// host::HostScheduler / host::QueuePair — the sharded asynchronous front-end
// over the block device. Covers the async round trip, per-stream ordering
// (read-your-writes on one shard), explicit backpressure (Status::busy on an
// exhausted queue depth), QoS counter accounting, multi-client/multi-shard
// content integrity, the coalescing counters in both config states, the
// page-splitting sync write_sectors helper, drain-on-stop, the single reap
// time that every completion of one poll shares, the
// spin-then-park rule (when the front-end may spin, idle consumers parking,
// stop() breaking a spinning consumer out), and the API preconditions.
// Thread-heavy tests also run under TSan in CI.
#include "host/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/contracts.hpp"
#include "core/rng.hpp"
#include "ftl/ftl.hpp"

namespace swl::host {
namespace {

ShardStack make_stack(BlockIndex blocks = 16) {
  nand::NandConfig nc;
  nc.geometry =
      FlashGeometry{.block_count = blocks, .pages_per_block = 8, .page_size_bytes = 2048};
  nc.timing = default_timing(CellType::mlc_x2);
  ShardStack s;
  s.chip = std::make_unique<nand::NandChip>(nc);
  s.layer = std::make_unique<ftl::Ftl>(*s.chip, ftl::FtlConfig{});
  s.dev = std::make_unique<bdev::BlockDevice>(*s.layer);
  return s;
}

std::vector<ShardStack> make_stacks(unsigned shards, BlockIndex blocks = 16) {
  std::vector<ShardStack> stacks;
  stacks.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) stacks.push_back(make_stack(blocks));
  return stacks;
}

TEST(HostScheduler, GeometryAndRouting) {
  HostScheduler sched(make_stacks(2), HostConfig{});
  EXPECT_EQ(sched.shard_count(), 2u);
  EXPECT_EQ(sched.sectors_per_page(), 4u);
  EXPECT_EQ(sched.sector_count(), 2 * sched.shard_device(0).sector_count());
  // Page-striped: all four sectors of one page route to one shard, pages
  // alternate between shards, and local sectors re-pack densely.
  EXPECT_EQ(sched.shard_of(0), 0u);
  EXPECT_EQ(sched.shard_of(3), 0u);
  EXPECT_EQ(sched.shard_of(4), 1u);
  EXPECT_EQ(sched.shard_of(7), 1u);
  EXPECT_EQ(sched.shard_of(8), 0u);
  EXPECT_EQ(sched.local_sector(0), 0u);
  EXPECT_EQ(sched.local_sector(4), 0u);
  EXPECT_EQ(sched.local_sector(8), 4u);
  EXPECT_EQ(sched.local_sector(9), 5u);
}

TEST(HostScheduler, SyncRoundTrip) {
  HostScheduler sched(make_stacks(1), HostConfig{});
  QueuePair& qp = sched.open_queue_pair();
  sched.start();
  ASSERT_EQ(qp.write_sector(10, 0xABCD), Status::ok);
  std::uint64_t v = 0;
  ASSERT_EQ(qp.read_sector(10, &v), Status::ok);
  EXPECT_EQ(v, 0xABCDu);
  EXPECT_EQ(qp.read_sector(50, &v), Status::lba_not_mapped);
  sched.stop();
}

TEST(HostScheduler, AsyncWritesCompleteWithMonotonicIdsAndLand) {
  HostConfig config;
  config.queue_depth = 256;  // deeper than the whole burst: no busy, exact ids
  HostScheduler sched(make_stacks(2), config);
  QueuePair& qp = sched.open_queue_pair();
  sched.start();
  constexpr std::uint64_t kWrites = 200;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    RequestId id = ~RequestId{0};
    ASSERT_EQ(qp.submit_write(i % sched.sector_count(), i, SubmitMode::blocking, &id),
              Status::ok);
    EXPECT_EQ(id, i);
  }
  std::array<Completion, 32> comps;
  std::uint64_t reaped = 0;
  while (reaped < kWrites) {
    const std::size_t n = qp.wait(comps);
    ASSERT_GT(n, 0u);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(comps[i].status, Status::ok);
      EXPECT_EQ(comps[i].op, OpKind::write);
    }
    reaped += n;
  }
  EXPECT_EQ(qp.counters().inflight(), 0u);
  sched.stop();
  std::uint64_t v = 0;
  ASSERT_EQ(sched.read_sector_direct(5, &v), Status::ok);
  // Sector 5 was last written by request id 5 + 3 laps of sector_count...
  // simpler: every sector's final value is the highest i that mapped to it.
  std::uint64_t want = 5;
  for (std::uint64_t i = 5; i < kWrites; i += sched.sector_count()) want = i;
  EXPECT_EQ(v, want & sched.shard_device(0).lane_mask());
}

TEST(HostScheduler, ReadObservesEarlierWriteOnTheSameStream) {
  // One shard, one stream: the submission ring is FIFO, so an async read
  // submitted after a write to the same sector must observe it.
  HostScheduler sched(make_stacks(1), HostConfig{});
  QueuePair& qp = sched.open_queue_pair();
  sched.start();
  ASSERT_EQ(qp.submit_write(7, 0x1234, SubmitMode::blocking), Status::ok);
  RequestId read_id = 0;
  ASSERT_EQ(qp.submit_read(7, SubmitMode::blocking, &read_id), Status::ok);
  std::array<Completion, 4> comps;
  std::uint64_t got = ~std::uint64_t{0};
  std::uint64_t reaped = 0;
  while (reaped < 2) {
    const std::size_t n = qp.wait(comps);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(comps[i].status, Status::ok);
      if (comps[i].id == read_id) got = comps[i].value;
    }
    reaped += n;
  }
  EXPECT_EQ(got, 0x1234u);
  sched.stop();
}

TEST(HostScheduler, ExhaustedQueueDepthReturnsBusyUntilReaped) {
  HostConfig config;
  config.queue_depth = 4;
  HostScheduler sched(make_stacks(1), config);
  QueuePair& qp = sched.open_queue_pair();
  sched.start();
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(qp.submit_write(i, i, SubmitMode::blocking), Status::ok);
  }
  // Slots only free at reap time, so the fifth submission is busy in *both*
  // modes — blocking here would deadlock the thread that must reap.
  EXPECT_EQ(qp.submit_write(4, 4, SubmitMode::try_once), Status::busy);
  EXPECT_EQ(qp.submit_write(4, 4, SubmitMode::blocking), Status::busy);
  EXPECT_EQ(qp.counters().would_blocks, 2u);
  std::array<Completion, 8> comps;
  std::uint64_t reaped = 0;
  while (reaped < 4) reaped += qp.wait(comps);
  EXPECT_EQ(qp.submit_write(4, 4, SubmitMode::try_once), Status::ok);
  while (qp.counters().inflight() > 0) (void)qp.wait(comps);
  sched.stop();
}

TEST(HostScheduler, QoSCountersAndLatencyHistogramsAccountEveryRequest) {
  HostScheduler sched(make_stacks(2), HostConfig{});
  QueuePair& qp = sched.open_queue_pair();
  sched.start();
  constexpr std::uint64_t kWrites = 300;
  constexpr std::uint64_t kReads = 100;
  std::array<Completion, 16> comps;
  // Deeper than the queue depth: reap on busy to keep the stream moving.
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    Status st = qp.submit_write(i % sched.sector_count(), i, SubmitMode::try_once);
    while (st == Status::busy) {
      (void)qp.wait(comps);
      st = qp.submit_write(i % sched.sector_count(), i, SubmitMode::try_once);
    }
    ASSERT_EQ(st, Status::ok);
  }
  while (qp.counters().inflight() > 0) (void)qp.wait(comps);
  for (std::uint64_t i = 0; i < kReads; ++i) {
    Status st = qp.submit_read(i % sched.sector_count(), SubmitMode::try_once);
    while (st == Status::busy) {
      (void)qp.wait(comps);
      st = qp.submit_read(i % sched.sector_count(), SubmitMode::try_once);
    }
    ASSERT_EQ(st, Status::ok);
  }
  while (qp.counters().inflight() > 0) (void)qp.wait(comps);
  EXPECT_EQ(qp.counters().submitted, kWrites + kReads);
  EXPECT_EQ(qp.counters().completed, kWrites + kReads);
  EXPECT_EQ(qp.write_latency().count(), kWrites);
  EXPECT_EQ(qp.read_latency().count(), kReads);
  EXPECT_GT(qp.write_latency().quantile(0.99), 0u);
  sched.stop();
  // Consumer-side accounting matches: every request executed exactly once.
  std::uint64_t executed = 0;
  for (unsigned s = 0; s < sched.shard_count(); ++s) {
    executed += sched.shard_counters(s).requests_executed;
  }
  EXPECT_EQ(executed, kWrites + kReads);
}

TEST(HostScheduler, MultiClientMultiShardContentIntegrity) {
  constexpr unsigned kClients = 3;
  HostScheduler sched(make_stacks(2), HostConfig{});
  std::vector<QueuePair*> qps;
  for (unsigned c = 0; c < kClients; ++c) qps.push_back(&sched.open_queue_pair());
  sched.start();
  // Disjoint contiguous sector ranges per client; every client hits both
  // shards (ranges span many pages).
  const SectorIndex per_client = sched.sector_count() / kClients;
  std::vector<std::map<SectorIndex, std::uint64_t>> shadows(kClients);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      QueuePair& qp = *qps[c];
      Rng rng(1000 + c);
      std::array<Completion, 32> comps;
      for (int op = 0; op < 4'000; ++op) {
        const SectorIndex sector = c * per_client + rng.below(per_client);
        const std::uint64_t value = rng.next() & 0xFFFF;
        Status st = qp.submit_write(sector, value, SubmitMode::try_once);
        while (st == Status::busy) {
          (void)qp.wait(comps);
          st = qp.submit_write(sector, value, SubmitMode::try_once);
        }
        ASSERT_EQ(st, Status::ok);
        shadows[c][sector] = value;
        if (op % 8 == 0) (void)qp.poll(comps);
      }
      while (qp.counters().inflight() > 0) (void)qp.wait(comps);
    });
  }
  for (auto& t : threads) t.join();
  sched.stop();
  for (unsigned s = 0; s < sched.shard_count(); ++s) {
    EXPECT_GT(sched.shard_counters(s).requests_executed, 0u) << "shard " << s;
    sched.shard_device(s).layer().check_invariants();
  }
  for (unsigned c = 0; c < kClients; ++c) {
    for (const auto& [sector, want] : shadows[c]) {
      std::uint64_t got = 0;
      ASSERT_EQ(sched.read_sector_direct(sector, &got), Status::ok);
      ASSERT_EQ(got, want) << "client " << c << " sector " << sector;
    }
  }
}

TEST(HostScheduler, CoalescingOffNeverMergesRequests) {
  HostConfig config;
  config.coalesce_writes = false;
  HostScheduler sched(make_stacks(1), config);
  QueuePair& qp = sched.open_queue_pair();
  sched.start();
  std::array<Completion, 32> comps;
  for (std::uint64_t i = 0; i < 500; ++i) {  // adjacent sectors: prime fodder
    Status st = qp.submit_write(i % sched.sector_count(), i, SubmitMode::try_once);
    while (st == Status::busy) {
      (void)qp.wait(comps);
      st = qp.submit_write(i % sched.sector_count(), i, SubmitMode::try_once);
    }
    ASSERT_EQ(st, Status::ok);
  }
  while (qp.counters().inflight() > 0) (void)qp.wait(comps);
  sched.stop();
  EXPECT_EQ(sched.shard_counters(0).coalesced_runs, 0u);
  EXPECT_EQ(sched.shard_counters(0).coalesced_requests, 0u);
  EXPECT_EQ(sched.shard_counters(0).requests_executed, 500u);
}

TEST(HostScheduler, CoalescingMergesAdjacentWritesIntoRuns) {
  // Whether two adjacent requests land in one drain batch depends on thread
  // timing, so retry whole sessions until coalescing is observed (virtually
  // always the first attempt: the client floods 64 adjacent sectors with no
  // reaping pause while the consumer is still waking).
  bool coalesced = false;
  for (int attempt = 0; attempt < 50 && !coalesced; ++attempt) {
    HostConfig config;
    config.queue_depth = 64;
    HostScheduler sched(make_stacks(1), config);
    QueuePair& qp = sched.open_queue_pair();
    sched.start();
    for (std::uint64_t i = 0; i < 64; ++i) {
      ASSERT_EQ(qp.submit_write(i, 0xBEE0 + i, SubmitMode::blocking), Status::ok);
    }
    std::array<Completion, 64> comps;
    while (qp.counters().inflight() > 0) (void)qp.wait(comps);
    sched.stop();
    const ShardCounters& sc = sched.shard_counters(0);
    coalesced = sc.coalesced_runs > 0;
    if (coalesced) {
      // Each merged run covers at least two requests.
      EXPECT_GE(sc.coalesced_requests, 2 * sc.coalesced_runs);
    }
    // Coalesced or not, the content must be identical.
    for (std::uint64_t i = 0; i < 64; ++i) {
      std::uint64_t v = 0;
      ASSERT_EQ(sched.read_sector_direct(i, &v), Status::ok);
      ASSERT_EQ(v, (0xBEE0 + i) & 0xFFFF);
    }
  }
  EXPECT_TRUE(coalesced) << "no session ever merged adjacent writes";
}

TEST(HostScheduler, WriteSectorsSplitsAcrossPagesAndShards) {
  HostScheduler sched(make_stacks(2), HostConfig{});
  QueuePair& qp = sched.open_queue_pair();
  sched.start();
  // 4 sectors/page: the span 3..17 covers partial and whole pages on both
  // shards (global pages 0..4 alternate shard 0/1/0/1/0).
  ASSERT_EQ(qp.write_sectors(3, 14, 700), Status::ok);
  sched.stop();
  for (SectorIndex s = 3; s < 17; ++s) {
    std::uint64_t v = 0;
    ASSERT_EQ(sched.read_sector_direct(s, &v), Status::ok);
    EXPECT_EQ(v, (700 + (s - 3)) & 0xFFFF) << "sector " << s;
  }
  EXPECT_GT(sched.shard_counters(0).requests_executed, 0u);
  EXPECT_GT(sched.shard_counters(1).requests_executed, 0u);
}

TEST(HostScheduler, StopDrainsEveryInFlightRequest) {
  HostScheduler sched(make_stacks(2), HostConfig{});
  QueuePair& qp = sched.open_queue_pair();
  sched.start();
  constexpr std::uint64_t kWrites = 64;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    ASSERT_EQ(qp.submit_write(i, i, SubmitMode::blocking), Status::ok);
  }
  sched.stop();  // drains the rings before joining
  // The completions are all reapable now, without any consumer running.
  std::array<Completion, 16> comps;
  std::uint64_t reaped = 0;
  std::size_t n = 0;
  while ((n = qp.poll(comps)) > 0) reaped += n;
  EXPECT_EQ(reaped, kWrites);
  EXPECT_EQ(qp.counters().inflight(), 0u);
}

TEST(HostScheduler, OnePollStampsEveryCompletionWithOneReapTime) {
  // latency_ns runs from submit to the poll that returns the completion, and
  // poll reads the clock once for everything it reaps. Sleeping before that
  // poll puts the sleep into every latency; a common reap time and submit
  // times that rise with the id make latencies non-increasing in id order.
  HostScheduler sched(make_stacks(2), HostConfig{});
  QueuePair& qp = sched.open_queue_pair();
  sched.start();
  constexpr std::size_t kRequests = 12;
  std::array<std::uint64_t, kRequests> submit_lo{};
  std::array<std::uint64_t, kRequests> submit_hi{};
  const auto now = [] {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
  };
  for (std::size_t i = 0; i < kRequests; ++i) {
    const SectorIndex sector = i * 3;  // pages 0..8: both shards
    submit_lo[i] = now();
    const Status st = i % 3 == 2 ? qp.submit_read(sector, SubmitMode::blocking)
                                 : qp.submit_write(sector, i, SubmitMode::blocking);
    submit_hi[i] = now();
    ASSERT_EQ(st, Status::ok);
  }
  constexpr std::uint64_t kSleepNs = 2'000'000;
  std::this_thread::sleep_for(std::chrono::nanoseconds(kSleepNs));
  sched.stop();  // every request has completed: one poll reaps them all
  std::array<Completion, kRequests + 4> comps;
  const std::uint64_t poll_lo = now();
  const std::size_t n = qp.poll(comps);
  const std::uint64_t poll_hi = now();
  ASSERT_EQ(n, kRequests);
  std::sort(comps.begin(), comps.begin() + n,
            [](const Completion& a, const Completion& b) { return a.id < b.id; });
  std::uint64_t reads = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Completion& c = comps[i];
    ASSERT_EQ(c.id, i);
    if (c.op == OpKind::read) ++reads;
    EXPECT_GE(c.latency_ns, std::uint64_t{1'000'000}) << "request " << i;
    // The reap time lies inside the poll call, the submit time inside the
    // submit call.
    EXPECT_GE(c.latency_ns, poll_lo - submit_hi[i]) << "request " << i;
    EXPECT_LE(c.latency_ns, poll_hi - submit_lo[i]) << "request " << i;
    if (i > 0) {
      EXPECT_LE(c.latency_ns, comps[i - 1].latency_ns) << "request " << i;
    }
  }
  EXPECT_EQ(reads, kRequests / 3);
  EXPECT_EQ(qp.read_latency().count(), reads);
  EXPECT_EQ(qp.write_latency().count(), n - reads);
  EXPECT_EQ(qp.counters().completed, n);
  EXPECT_EQ(qp.poll(comps), 0u);
}

TEST(HostScheduler, SpinsOnlyWhenEveryThreadHasACpu) {
  using std::chrono::nanoseconds;
  // consumers + queue pairs against the usable CPUs, at the boundary.
  EXPECT_EQ(spin_budget_for(2, 1, 4), kSpinBudget);    // host_mixed on 4 vCPUs
  EXPECT_EQ(spin_budget_for(3, 0, 4), kSpinBudget);
  EXPECT_EQ(spin_budget_for(2, 2, 4), nanoseconds{0});  // host_mt, bench_host arm 2
  EXPECT_EQ(spin_budget_for(1, 1, 4), kSpinBudget);    // bench_host arm 1
  EXPECT_EQ(spin_budget_for(4, 4, 4), nanoseconds{0});  // bench_host arm 4
  EXPECT_EQ(spin_budget_for(1, 1, 3), kSpinBudget);
  EXPECT_EQ(spin_budget_for(1, 2, 3), nanoseconds{0});
  // A 1-CPU host never spins, whatever the thread count.
  EXPECT_EQ(spin_budget_for(1, 0, 1), nanoseconds{0});
  EXPECT_EQ(spin_budget_for(0, 0, 1), nanoseconds{0});
  EXPECT_EQ(spin_budget_for(1, 1, 1), nanoseconds{0});
  EXPECT_GT(kSpinBudget, nanoseconds{0});

  // start() applies the rule to this process's own CPUs.
  HostScheduler sched(make_stacks(2), HostConfig{});
  (void)sched.open_queue_pair();
  EXPECT_EQ(sched.spin_budget(), nanoseconds{0});  // nothing decided before start()
  sched.start();
  EXPECT_EQ(sched.spin_budget(), spin_budget_for(2, 1, usable_cpu_count()));
  sched.stop();
}

TEST(HostScheduler, IdleConsumersPark) {
  // Spinning or not, a consumer with nothing to do spends at most one spin
  // budget per empty-ring episode and then sleeps. One round trip per shard
  // first, so both consumers are known to be running when the idle time
  // starts.
  HostScheduler sched(make_stacks(2), HostConfig{});
  QueuePair& qp = sched.open_queue_pair();
  sched.start();
  ASSERT_EQ(qp.write_sector(0, 1), Status::ok);  // shard 0
  ASSERT_EQ(qp.write_sector(4, 1), Status::ok);  // shard 1
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sched.stop();
  for (unsigned s = 0; s < sched.shard_count(); ++s) {
    EXPECT_GE(sched.shard_counters(s).parks, 1u) << "shard " << s;
    EXPECT_EQ(sched.shard_counters(s).requests_executed, 1u);
  }
}

TEST(HostScheduler, StopDuringASpinDrainsEveryRequest) {
  // After each round trip the consumer finds its ring empty and spins (on a
  // host with a CPU per thread); stop() lands while it does. The predicate
  // includes the stop flag, so stop() returns promptly and every request
  // submitted before it still executes.
  HostScheduler sched(make_stacks(1), HostConfig{});
  QueuePair& qp = sched.open_queue_pair();
  sched.start();
  ASSERT_EQ(qp.write_sector(0, 1), Status::ok);
  constexpr std::uint64_t kWrites = 32;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    ASSERT_EQ(qp.submit_write(i, i, SubmitMode::blocking), Status::ok);
  }
  const auto start = std::chrono::steady_clock::now();
  sched.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  std::array<Completion, 16> comps;
  std::uint64_t reaped = 0;
  std::size_t n = 0;
  while ((n = qp.poll(comps)) > 0) reaped += n;
  EXPECT_EQ(reaped, kWrites);
  EXPECT_EQ(sched.shard_counters(0).requests_executed, kWrites + 1);
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    std::uint64_t v = ~std::uint64_t{0};
    ASSERT_EQ(sched.read_sector_direct(i, &v), Status::ok);
    EXPECT_EQ(v, i);
  }
}

TEST(HostScheduler, SecondStopIsIdempotent) {
  HostScheduler sched(make_stacks(1), HostConfig{});
  QueuePair& qp = sched.open_queue_pair();
  sched.start();
  ASSERT_EQ(qp.write_sector(0, 1), Status::ok);
  sched.stop();
  sched.stop();
  EXPECT_FALSE(sched.running());
}

TEST(HostScheduler, RejectsApiMisuse) {
  HostScheduler sched(make_stacks(2), HostConfig{});
  QueuePair& qp = sched.open_queue_pair();
  // Submitting before start: the scheduler is not running.
  EXPECT_THROW((void)qp.submit_write(0, 1, SubmitMode::try_once), PreconditionError);
  sched.start();
  EXPECT_THROW((void)sched.open_queue_pair(), PreconditionError);  // too late
  EXPECT_THROW((void)sched.read_sector_direct(0, nullptr), PreconditionError);  // running
  const std::array<std::uint64_t, 3> run{1, 2, 3};
  // Lane 2 + 3 values crosses the 4-sector page boundary.
  EXPECT_THROW((void)qp.submit_write_run(2, run, SubmitMode::try_once), PreconditionError);
  EXPECT_THROW((void)qp.submit_write(sched.sector_count(), 1, SubmitMode::try_once),
               PreconditionError);
  // Sync helpers demand an idle stream.
  ASSERT_EQ(qp.submit_write(0, 7, SubmitMode::blocking), Status::ok);
  EXPECT_THROW((void)qp.write_sector(1, 1), PreconditionError);
  std::array<Completion, 4> comps;
  while (qp.counters().inflight() > 0) (void)qp.wait(comps);
  sched.stop();
}

TEST(HostScheduler, RejectsMismatchedShardGeometry) {
  std::vector<ShardStack> stacks;
  stacks.push_back(make_stack(16));
  stacks.push_back(make_stack(24));  // different sector count
  EXPECT_THROW(HostScheduler(std::move(stacks), HostConfig{}), PreconditionError);
  EXPECT_THROW(HostScheduler(std::vector<ShardStack>{}, HostConfig{}), PreconditionError);
}

}  // namespace
}  // namespace swl::host
