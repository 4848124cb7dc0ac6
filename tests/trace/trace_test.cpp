#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <vector>

#include "core/contracts.hpp"
#include "trace/segment_replay.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_stats.hpp"

namespace swl::trace {
namespace {

SyntheticConfig small_config() {
  SyntheticConfig c;
  c.lba_count = 20'000;
  c.duration_s = 2.0 * 24 * 3600;  // two days
  c.seed = 1234;
  return c;
}

TEST(Synthetic, DeterministicForSameSeed) {
  const Trace a = generate_synthetic_trace(small_config());
  const Trace b = generate_synthetic_trace(small_config());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticConfig c = small_config();
  const Trace a = generate_synthetic_trace(c);
  c.seed = 999;
  const Trace b = generate_synthetic_trace(c);
  EXPECT_NE(a, b);
}

TEST(Synthetic, TimesAreMonotonic) {
  const Trace t = generate_synthetic_trace(small_config());
  ASSERT_FALSE(t.empty());
  EXPECT_TRUE(std::is_sorted(t.begin(), t.end(), [](const auto& x, const auto& y) {
    return x.time_us < y.time_us;
  }));
  EXPECT_LE(t.back().time_us, seconds_to_us(small_config().duration_s));
}

TEST(Synthetic, LbasStayInRange) {
  const SyntheticConfig c = small_config();
  const Trace t = generate_synthetic_trace(c);
  for (const auto& rec : t) ASSERT_LT(rec.lba, c.lba_count);
}

// The substitution contract of DESIGN.md: the synthetic workload must match
// the paper's aggregate trace statistics (Section 5.1).
TEST(Synthetic, MatchesPaperAggregateRates) {
  const SyntheticConfig c = small_config();
  const TraceStats s = analyze(generate_synthetic_trace(c), c.lba_count);
  EXPECT_NEAR(s.writes_per_second, 1.82, 0.30);
  EXPECT_NEAR(s.reads_per_second, 1.97, 0.25);
}

TEST(Synthetic, MatchesPaperWriteCoverage) {
  // Longer trace so cold fills and bursts cover their regions.
  SyntheticConfig c = small_config();
  c.duration_s = 12.0 * 24 * 3600;
  const TraceStats s = analyze(generate_synthetic_trace(c), c.lba_count);
  EXPECT_NEAR(s.write_coverage, 0.3662, 0.06);
}

TEST(Synthetic, IsHotColdSkewed) {
  const SyntheticConfig c = small_config();
  const TraceStats s = analyze(generate_synthetic_trace(c), c.lba_count);
  // The top decile of written LBAs takes far more than 10% of the writes.
  EXPECT_GT(s.top_decile_write_share, 0.35);
}

TEST(Synthetic, IsBursty) {
  const SyntheticConfig c = small_config();
  const TraceStats s = analyze(generate_synthetic_trace(c), c.lba_count);
  // A large share of writes continues a sequential run (downloads/copies).
  EXPECT_GT(s.sequential_write_fraction, 0.25);
}

TEST(Synthetic, StreamingMatchesMaterialized) {
  const SyntheticConfig c = small_config();
  SyntheticTraceSource source(c);
  const Trace t = generate_synthetic_trace(c);
  for (std::size_t i = 0; i < std::min<std::size_t>(t.size(), 5000); ++i) {
    const auto rec = source.next();
    ASSERT_TRUE(rec.has_value());
    ASSERT_EQ(*rec, t[i]) << "record " << i;
  }
}

TEST(Synthetic, RejectsBadConfig) {
  SyntheticConfig c = small_config();
  c.lba_count = 4;
  EXPECT_THROW(SyntheticTraceSource{c}, PreconditionError);
  c = small_config();
  c.duration_s = 0;
  EXPECT_THROW(SyntheticTraceSource{c}, PreconditionError);
  c = small_config();
  c.write_coverage = 0.0;
  EXPECT_THROW(SyntheticTraceSource{c}, PreconditionError);
  c = small_config();
  c.burst_min_pages = 10;
  c.burst_max_pages = 5;
  EXPECT_THROW(SyntheticTraceSource{c}, PreconditionError);
}

TEST(Presets, NamesAreStable) {
  EXPECT_EQ(to_string(WorkloadPreset::desktop), "desktop");
  EXPECT_EQ(to_string(WorkloadPreset::server), "server");
  EXPECT_EQ(to_string(WorkloadPreset::sequential_fill), "sequential_fill");
  EXPECT_EQ(to_string(WorkloadPreset::uniform_random), "uniform_random");
}

TEST(Presets, AllPresetsGenerateValidTraces) {
  for (const auto preset :
       {WorkloadPreset::desktop, WorkloadPreset::server, WorkloadPreset::sequential_fill,
        WorkloadPreset::uniform_random}) {
    SyntheticConfig c = preset_config(preset, 20'000);
    c.duration_s = 3600;
    const Trace t = generate_synthetic_trace(c);
    ASSERT_FALSE(t.empty()) << to_string(preset);
    for (const auto& rec : t) ASSERT_LT(rec.lba, c.lba_count);
    ASSERT_TRUE(std::is_sorted(t.begin(), t.end(), [](const auto& x, const auto& y) {
      return x.time_us < y.time_us;
    })) << to_string(preset);
  }
}

TEST(Presets, ServerIsFasterAndFlatterThanDesktop) {
  SyntheticConfig desktop = preset_config(WorkloadPreset::desktop, 20'000);
  SyntheticConfig server = preset_config(WorkloadPreset::server, 20'000);
  desktop.duration_s = server.duration_s = 12 * 3600;
  const TraceStats d = analyze(generate_synthetic_trace(desktop), 20'000);
  const TraceStats s = analyze(generate_synthetic_trace(server), 20'000);
  EXPECT_GT(s.writes_per_second, d.writes_per_second * 5);
  EXPECT_GT(s.write_coverage, d.write_coverage);
  EXPECT_LT(s.top_decile_write_share, d.top_decile_write_share);
}

TEST(Presets, SequentialFillIsMostlySequential) {
  SyntheticConfig c = preset_config(WorkloadPreset::sequential_fill, 40'000);
  c.duration_s = 6 * 3600;
  const TraceStats s = analyze(generate_synthetic_trace(c), 40'000);
  EXPECT_GT(s.sequential_write_fraction, 0.8);
}

TEST(Presets, UniformRandomHasLittleSkew) {
  SyntheticConfig c = preset_config(WorkloadPreset::uniform_random, 20'000);
  c.duration_s = 12 * 3600;
  const TraceStats s = analyze(generate_synthetic_trace(c), 20'000);
  // Top decile of written LBAs takes close to 10% of the writes.
  EXPECT_LT(s.top_decile_write_share, 0.2);
}

TEST(SegmentReplay, ProducesMonotonicInfiniteStream) {
  SyntheticConfig c = small_config();
  c.duration_s = 6 * 3600;
  const Trace base = generate_synthetic_trace(c);
  SegmentReplaySource replay(base, 600.0, 42);
  SimTime last = 0;
  for (int i = 0; i < 50'000; ++i) {
    const auto rec = replay.next();
    ASSERT_TRUE(rec.has_value());
    ASSERT_GE(rec->time_us, last);
    last = rec->time_us;
  }
  EXPECT_GT(replay.segments_started(), 1u);
}

TEST(SegmentReplay, OnlyReplaysRecordsFromTheBase) {
  SyntheticConfig c = small_config();
  c.duration_s = 3600;
  const Trace base = generate_synthetic_trace(c);
  std::set<Lba> base_lbas;
  for (const auto& rec : base) base_lbas.insert(rec.lba);
  SegmentReplaySource replay(base, 600.0, 7);
  for (int i = 0; i < 10'000; ++i) {
    const auto rec = replay.next();
    ASSERT_TRUE(rec.has_value());
    ASSERT_TRUE(base_lbas.contains(rec->lba));
  }
}

TEST(SegmentReplay, PreservesLongRunWriteRate) {
  SyntheticConfig c = small_config();
  c.duration_s = 24 * 3600;
  const Trace base = generate_synthetic_trace(c);
  const TraceStats base_stats = analyze(base, c.lba_count);
  SegmentReplaySource replay(base, 600.0, 11);
  Trace sampled;
  for (int i = 0; i < 300'000; ++i) sampled.push_back(*replay.next());
  const TraceStats s = analyze(sampled, c.lba_count);
  EXPECT_NEAR(s.writes_per_second, base_stats.writes_per_second,
              base_stats.writes_per_second * 0.25);
}

TEST(SegmentReplay, RejectsEmptyBase) {
  const Trace empty;
  EXPECT_THROW(SegmentReplaySource(empty, 600.0), PreconditionError);
}

TEST(TraceIo, BinaryRoundTrips) {
  SyntheticConfig c = small_config();
  c.duration_s = 3600;
  const Trace t = generate_synthetic_trace(c);
  std::stringstream ss;
  write_binary(ss, t);
  Trace out;
  ASSERT_EQ(read_binary(ss, &out), Status::ok);
  EXPECT_EQ(out, t);
}

TEST(TraceIo, BinaryDetectsCorruption) {
  const Trace t = {{100, 5, Op::write}, {200, 6, Op::read}};
  std::stringstream ss;
  write_binary(ss, t);
  std::string payload = ss.str();
  payload[payload.size() / 2] ^= 0x40;
  std::stringstream corrupted(payload);
  Trace out;
  EXPECT_EQ(read_binary(corrupted, &out), Status::corrupt_snapshot);
}

TEST(TraceIo, BinaryDetectsTruncation) {
  const Trace t = {{100, 5, Op::write}};
  std::stringstream ss;
  write_binary(ss, t);
  std::string payload = ss.str();
  payload.resize(payload.size() - 2);
  std::stringstream truncated(payload);
  Trace out;
  EXPECT_EQ(read_binary(truncated, &out), Status::corrupt_snapshot);
}

TEST(TraceIo, CsvRoundTrips) {
  const Trace t = {{100, 5, Op::write}, {200, 6, Op::read}, {300, 7, Op::write}};
  std::stringstream ss;
  write_csv(ss, t);
  Trace out;
  ASSERT_EQ(read_csv(ss, &out), Status::ok);
  EXPECT_EQ(out, t);
}

TEST(TraceIo, CsvRejectsGarbage) {
  std::stringstream ss("time_us,lba,op\n12,notanumber,W\n");
  Trace out;
  EXPECT_EQ(read_csv(ss, &out), Status::corrupt_snapshot);
}

// ---- next() / next_batch() equivalence ------------------------------------
//
// The batched API is the replay hot path; every source must yield the exact
// record stream its per-record next() yields, for any batch size. `serial`
// and `batched` must be freshly built over identical inputs; `limit` caps
// infinite sources.
void expect_batches_match_serial(TraceSource& serial, TraceSource& batched, std::size_t n,
                                 std::uint64_t limit) {
  std::vector<TraceRecord> buf(n);
  std::uint64_t seen = 0;
  while (seen < limit) {
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, limit - seen));
    const std::size_t got = batched.next_batch(buf.data(), want);
    ASSERT_LE(got, want);
    for (std::size_t i = 0; i < got; ++i) {
      const auto rec = serial.next();
      ASSERT_TRUE(rec.has_value()) << "batch size " << n << ", record " << seen + i;
      ASSERT_EQ(buf[i], *rec) << "batch size " << n << ", record " << seen + i;
    }
    seen += got;
    if (got < want) break;  // source ended mid-batch
  }
  // When the batched side ended before the cap, the serial side must end too.
  if (seen < limit) {
    EXPECT_FALSE(serial.next().has_value()) << "batch size " << n;
  }
}

constexpr std::size_t kBatchSizes[] = {1, 7, 4096};

TEST(BatchEquivalence, VectorSource) {
  SyntheticConfig c = small_config();
  c.duration_s = 3600;
  const Trace t = generate_synthetic_trace(c);
  ASSERT_FALSE(t.empty());
  for (const std::size_t n : kBatchSizes) {
    VectorTraceSource serial(t);
    VectorTraceSource batched(t);
    expect_batches_match_serial(serial, batched, n, UINT64_MAX);
  }
}

TEST(BatchEquivalence, SyntheticSource) {
  for (const std::size_t n : kBatchSizes) {
    SyntheticTraceSource serial(small_config());
    SyntheticTraceSource batched(small_config());
    expect_batches_match_serial(serial, batched, n, 20'000);
  }
}

TEST(BatchEquivalence, SegmentReplaySource) {
  SyntheticConfig c = small_config();
  c.duration_s = 6 * 3600;
  const Trace base = generate_synthetic_trace(c);
  for (const std::size_t n : kBatchSizes) {
    SegmentReplaySource serial(base, 600.0, 42);
    SegmentReplaySource batched(base, 600.0, 42);
    expect_batches_match_serial(serial, batched, n, 20'000);
  }
}

TEST(BatchEquivalence, BinaryTraceSource) {
  SyntheticConfig c = small_config();
  c.duration_s = 3600;
  const Trace t = generate_synthetic_trace(c);
  const std::string path = testing::TempDir() + "batch_equivalence.swlt";
  save_binary(path, t);
  for (const std::size_t n : kBatchSizes) {
    BinaryTraceSource serial(path);
    BinaryTraceSource batched(path);
    expect_batches_match_serial(serial, batched, n, UINT64_MAX);
    EXPECT_EQ(serial.status(), Status::ok);
    EXPECT_EQ(batched.status(), Status::ok);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, BufferedRoundTripThroughput) {
  // The chunk-buffered codec must stay orders of magnitude above one stream
  // operation per record. The floor is ~100x below release-build throughput
  // so sanitizer builds pass, while a regression to per-field stream IO
  // (~0.1 Mrec/s on files) would still trip it.
  SyntheticConfig c = small_config();
  c.duration_s = 24 * 3600;
  const Trace t = generate_synthetic_trace(c);
  ASSERT_GE(t.size(), 100'000u);
  const std::string path = testing::TempDir() + "throughput.swlt";
  const auto start = std::chrono::steady_clock::now();
  save_binary(path, t);
  Trace out;
  ASSERT_EQ(load_binary(path, &out), Status::ok);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::remove(path.c_str());
  ASSERT_EQ(out, t);
  const double records_per_second = static_cast<double>(t.size()) * 2.0 / seconds;
  EXPECT_GT(records_per_second, 1e6) << "round-tripped " << t.size() << " records in "
                                     << seconds << " s";
}

TEST(TraceStats, CountsOpsAndCoverage) {
  const Trace t = {{0, 0, Op::write},
                   {seconds_to_us(1), 1, Op::write},
                   {seconds_to_us(2), 0, Op::write},
                   {seconds_to_us(4), 3, Op::read}};
  const TraceStats s = analyze(t, 10);
  EXPECT_EQ(s.writes, 3u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_DOUBLE_EQ(s.write_coverage, 0.2);  // LBAs 0 and 1 of 10
  EXPECT_NEAR(s.writes_per_second, 0.75, 1e-9);
}

TEST(TraceStats, SequentialFraction) {
  const Trace t = {{0, 5, Op::write},
                   {1, 6, Op::write},
                   {2, 7, Op::write},
                   {3, 100, Op::write}};
  const TraceStats s = analyze(t, 200);
  EXPECT_DOUBLE_EQ(s.sequential_write_fraction, 0.5);  // 2 of 4 continue a run
}

TEST(TraceStats, EmptyTraceIsAllZero) {
  const TraceStats s = analyze({}, 10);
  EXPECT_EQ(s.writes, 0u);
  EXPECT_EQ(s.reads, 0u);
  EXPECT_DOUBLE_EQ(s.write_coverage, 0.0);
}

}  // namespace
}  // namespace swl::trace
