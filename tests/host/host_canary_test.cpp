// The serial-equivalence canary for the host front-end (see the determinism
// note atop host/scheduler.hpp): with one client stream, one shard and
// coalescing off, the scheduler must be *bit-identical* to direct serial
// BlockDevice calls — sector content, BdevCounters, TlCounters and
// per-block erase counts. The first test proves it against a live serial
// replay; the Pinned tests freeze the smoke checker's state fingerprint so
// a change that shifts both sides in lockstep (and would therefore pass the
// differential test) still trips the canary.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>

#include "core/rng.hpp"
#include "ftl/ftl.hpp"
#include "host/scheduler.hpp"
#include "host/smoke.hpp"

namespace swl::host {
namespace {

ShardStack make_stack() {
  nand::NandConfig nc;
  nc.geometry = FlashGeometry{.block_count = 16, .pages_per_block = 8, .page_size_bytes = 2048};
  nc.timing = default_timing(CellType::mlc_x2);
  ShardStack s;
  s.chip = std::make_unique<nand::NandChip>(nc);
  s.layer = std::make_unique<ftl::Ftl>(*s.chip, ftl::FtlConfig{});
  s.dev = std::make_unique<bdev::BlockDevice>(*s.layer);
  return s;
}

TEST(HostCanary, SerialConfigIsBitIdenticalToDirectDeviceCalls) {
  HostConfig config;
  config.coalesce_writes = false;
  std::vector<ShardStack> stacks;
  stacks.push_back(make_stack());
  HostScheduler sched(std::move(stacks), config);
  QueuePair& qp = sched.open_queue_pair();
  sched.start();

  // Pipelined async submissions (reads included) — the consumer must still
  // execute the exact serial call sequence because the ring is FIFO and
  // nothing may reorder or merge with coalescing off.
  ShardStack serial = make_stack();
  Rng rng(123);
  std::array<Completion, 16> comps;
  const SectorIndex sectors = sched.sector_count();
  for (int op = 0; op < 6'000; ++op) {
    const std::uint64_t kind = rng.below(8);
    if (kind < 5) {
      const SectorIndex sector = rng.below(sectors);
      const std::uint64_t value = rng.next();
      Status st = qp.submit_write(sector, value, SubmitMode::try_once);
      while (st == Status::busy) {
        (void)qp.wait(comps);
        st = qp.submit_write(sector, value, SubmitMode::try_once);
      }
      ASSERT_EQ(st, Status::ok);
      ASSERT_EQ(serial.dev->write_sector(sector, value), Status::ok);
    } else if (kind < 6) {
      const SectorIndex page_first = (rng.below(sectors / 4)) * 4;
      std::array<std::uint64_t, 4> values;
      for (auto& v : values) v = rng.next();
      Status st = qp.submit_write_run(page_first, values, SubmitMode::try_once);
      while (st == Status::busy) {
        (void)qp.wait(comps);
        st = qp.submit_write_run(page_first, values, SubmitMode::try_once);
      }
      ASSERT_EQ(st, Status::ok);
      ASSERT_EQ(serial.dev->write_sector_run(page_first, values), Status::ok);
    } else {
      const SectorIndex sector = rng.below(sectors);
      Status st = qp.submit_read(sector, SubmitMode::try_once);
      while (st == Status::busy) {
        (void)qp.wait(comps);
        st = qp.submit_read(sector, SubmitMode::try_once);
      }
      ASSERT_EQ(st, Status::ok);
      std::uint64_t v = 0;
      // Benign discard: only advances the serial oracle's clock/state in
      // lockstep; the fingerprint comparison below is the real check.
      discard_status(serial.dev->read_sector(sector, &v));
    }
    if (op % 5 == 0) (void)qp.poll(comps);
  }
  while (qp.counters().inflight() > 0) (void)qp.wait(comps);
  sched.stop();

  // Content: every sector identical (including unmapped status).
  bdev::BlockDevice& sdev = sched.shard_device(0);
  for (SectorIndex s = 0; s < sectors; ++s) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    const Status sa = sdev.read_sector(s, &a);
    const Status sb = serial.dev->read_sector(s, &b);
    ASSERT_EQ(sa, sb) << "sector " << s;
    if (sa == Status::ok) {
      ASSERT_EQ(a, b) << "sector " << s;
    }
  }
  // Device counters (the read_sector comparison loop above ran on both
  // devices equally, so it cancels out).
  EXPECT_EQ(sdev.counters().sector_writes, serial.dev->counters().sector_writes);
  EXPECT_EQ(sdev.counters().sector_reads, serial.dev->counters().sector_reads);
  EXPECT_EQ(sdev.counters().rmw_page_reads, serial.dev->counters().rmw_page_reads);
  EXPECT_EQ(sdev.counters().page_writes, serial.dev->counters().page_writes);
  // Translation-layer counters.
  const tl::TlCounters& ca = sdev.layer().counters();
  const tl::TlCounters& cb = serial.layer->counters();
  EXPECT_EQ(ca.host_writes, cb.host_writes);
  EXPECT_EQ(ca.host_reads, cb.host_reads);
  EXPECT_EQ(ca.gc_erases, cb.gc_erases);
  EXPECT_EQ(ca.swl_erases, cb.swl_erases);
  EXPECT_EQ(ca.gc_live_copies, cb.gc_live_copies);
  EXPECT_EQ(ca.swl_live_copies, cb.swl_live_copies);
  // Physical wear: per-block erase counts.
  EXPECT_EQ(sdev.layer().chip().erase_counts(), serial.layer->chip().erase_counts());
}

// Frozen state fingerprints of the smoke checker's serial-strict seeds
// (seed % 4 == 0 forces 1 shard / 1 client / no coalescing). These pins make
// the canary absolute: if scheduler *and* serial device drift together, the
// differential checks still pass but these constants change. Update them
// only for an intentional semantic change of the stack, and say why in the
// commit message.
TEST(HostCanary, PinnedSerialStrictFingerprintSeed0) {
  const HostCheckResult r = run_host_check(0);
  ASSERT_TRUE(r.passed) << r.message;
  ASSERT_TRUE(r.serial_strict);
  EXPECT_EQ(r.fingerprint, UINT64_C(18432233485773214038));
}

TEST(HostCanary, PinnedSerialStrictFingerprintSeed4) {
  const HostCheckResult r = run_host_check(4);
  ASSERT_TRUE(r.passed) << r.message;
  ASSERT_TRUE(r.serial_strict);
  EXPECT_EQ(r.fingerprint, UINT64_C(4178260389576083404));
}

}  // namespace
}  // namespace swl::host
