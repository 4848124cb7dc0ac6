// swl::perf — the perf-regression comparator behind tools/perf_compare and
// the CI perf gate, driven on in-memory artifacts. Covers artifact parsing
// (including the lower_is_better flag), the direction-aware merge rule, the
// normalization math in both gating directions, the compare-mode exit codes,
// the --ratchet admission check, the host-class rule for host-sensitive
// points (gate, ratchet and merge only within one class), and the merge's
// rescaling of every input to the last input's calibrate.
#include "perf_compare/compare.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace swl::perf {
namespace {

/// Builds an artifact JSON string from (name, items_per_second,
/// lower_is_better) triples, with an optional host_class object.
std::string artifact(const std::vector<std::tuple<std::string, double, bool>>& points,
                     const std::optional<HostClass>& host = std::nullopt) {
  std::ostringstream os;
  os << "{\"bench\":\"micro\",";
  if (host.has_value()) {
    os << "\"host_class\":{\"cpus\":" << host->cpus << ",\"cpu_model\":\"" << host->cpu_model
       << "\"},";
  }
  os << "\"points\":[";
  bool first = true;
  for (const auto& [name, ips, lib] : points) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << name << "\",\"items\":1,\"seconds\":1.0,\"items_per_second\":"
       << ips;
    if (lib) os << ",\"lower_is_better\":true";
    os << "}";
  }
  os << "]}";
  return os.str();
}

Artifact parse_or_die(const std::string& text) {
  std::ostringstream err;
  auto parsed = parse_artifact(text, "test", err);
  EXPECT_TRUE(parsed.has_value()) << err.str();
  return parsed.value_or(Artifact{});
}

TEST(PerfCompare, ParsesPointsAndDirectionFlag) {
  const PointMap points = parse_or_die(
      artifact({{"calibrate", 100.0, false}, {"a", 5.0, false}, {"lat_ns", 250.0, true}})).points;
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points.at("a").value, 5.0);
  EXPECT_FALSE(points.at("a").lower_is_better);
  EXPECT_TRUE(points.at("lat_ns").lower_is_better);
}

TEST(PerfCompare, RejectsMalformedArtifacts) {
  std::ostringstream err;
  EXPECT_FALSE(parse_artifact("not json", "t", err).has_value());
  EXPECT_FALSE(parse_artifact("{\"bench\":\"micro\"}", "t", err).has_value());
  EXPECT_FALSE(
      parse_artifact("{\"points\":[{\"name\":\"x\"}]}", "t", err).has_value());
}

TEST(PerfCompare, BetterIsDirectionAware) {
  Point throughput;
  Point latency;
  latency.lower_is_better = true;
  EXPECT_TRUE(better(throughput, 2.0, 1.0));
  EXPECT_FALSE(better(throughput, 1.0, 2.0));
  EXPECT_TRUE(better(latency, 1.0, 2.0));
  EXPECT_FALSE(better(latency, 2.0, 1.0));
}

TEST(PerfCompare, MergeKeepsBestPerDirection) {
  const Artifact a = parse_or_die(artifact({{"thr", 10.0, false}, {"lat", 300.0, true}}));
  const Artifact b = parse_or_die(artifact({{"thr", 12.0, false}, {"lat", 200.0, true}}));
  const PointMap merged = merge_artifacts({a, b}).points;
  EXPECT_DOUBLE_EQ(merged.at("thr").value, 12.0);   // max throughput
  EXPECT_DOUBLE_EQ(merged.at("lat").value, 200.0);  // min latency
}

TEST(PerfCompare, NormalizedRatioThroughputDirection) {
  Point base;
  base.value = 100.0;
  Point cur;
  cur.value = 50.0;
  // Same machine: half the throughput is a 0.5 ratio.
  EXPECT_DOUBLE_EQ(normalized_ratio(base, cur, 1.0), 0.5);
  // A 2x faster machine doubling the result is no real change: ratio 1.0.
  cur.value = 200.0;
  EXPECT_DOUBLE_EQ(normalized_ratio(base, cur, 2.0), 1.0);
}

TEST(PerfCompare, NormalizedRatioLatencyDirection) {
  Point base;
  base.value = 100.0;
  base.lower_is_better = true;
  Point cur = base;
  // Same machine, same latency: ratio exactly 1.
  EXPECT_DOUBLE_EQ(normalized_ratio(base, cur, 1.0), 1.0);
  // 25% more latency on the same machine: ratio 0.8 (worse).
  cur.value = 125.0;
  EXPECT_DOUBLE_EQ(normalized_ratio(base, cur, 1.0), 0.8);
  // A 2x faster machine halves latency for free — 50ns there is only parity.
  cur.value = 50.0;
  EXPECT_DOUBLE_EQ(normalized_ratio(base, cur, 2.0), 1.0);
  // Lower latency on the same machine is an improvement: ratio > 1.
  cur.value = 80.0;
  EXPECT_GT(normalized_ratio(base, cur, 1.0), 1.0);
}

TEST(PerfCompare, CompareExitCodes) {
  std::ostringstream out;
  std::ostringstream err;
  const Artifact base = parse_or_die(
      artifact({{"calibrate", 100.0, false}, {"thr", 10.0, false}, {"lat", 100.0, true}}));

  // Identical run: ok.
  EXPECT_EQ(compare(base, base, 0.15, out, err), 0);
  // Throughput regressed 50%: fail.
  const Artifact slow = parse_or_die(
      artifact({{"calibrate", 100.0, false}, {"thr", 5.0, false}, {"lat", 100.0, true}}));
  EXPECT_EQ(compare(base, slow, 0.15, out, err), 1);
  // Latency regressed 50% (the lower-is-better direction): fail.
  const Artifact laggy = parse_or_die(
      artifact({{"calibrate", 100.0, false}, {"thr", 10.0, false}, {"lat", 150.0, true}}));
  EXPECT_EQ(compare(base, laggy, 0.15, out, err), 1);
  // Latency *improved* 50%: ok — direction matters.
  const Artifact snappy = parse_or_die(
      artifact({{"calibrate", 100.0, false}, {"thr", 10.0, false}, {"lat", 50.0, true}}));
  EXPECT_EQ(compare(base, snappy, 0.15, out, err), 0);
  // A baseline point missing from the current run: fail.
  const Artifact missing =
      parse_or_die(artifact({{"calibrate", 100.0, false}, {"thr", 10.0, false}}));
  EXPECT_EQ(compare(base, missing, 0.15, out, err), 1);
  // New current-only points are reported, not gated.
  const Artifact extra = parse_or_die(artifact(
      {{"calibrate", 100.0, false}, {"thr", 10.0, false}, {"lat", 100.0, true}, {"new", 1.0, false}}));
  EXPECT_EQ(compare(base, extra, 0.15, out, err), 0);
  // No calibrate point: bad input.
  const Artifact uncalibrated = parse_or_die(artifact({{"thr", 10.0, false}}));
  EXPECT_EQ(compare(uncalibrated, uncalibrated, 0.15, out, err), 2);
}

TEST(PerfCompare, CompareNormalizesMachineSpeedInBothDirections) {
  std::ostringstream out;
  std::ostringstream err;
  const Artifact base = parse_or_die(
      artifact({{"calibrate", 100.0, false}, {"thr", 10.0, false}, {"lat", 100.0, true}}));
  // Twice-as-fast machine: throughput doubled and latency halved are both
  // exactly parity after normalization.
  const Artifact fast_host = parse_or_die(
      artifact({{"calibrate", 200.0, false}, {"thr", 20.0, false}, {"lat", 50.0, true}}));
  EXPECT_EQ(compare(base, fast_host, 0.15, out, err), 0);
  // Same numbers claimed from a half-speed machine mean a real improvement;
  // claimed from a double-speed machine, the *unchanged* raw latency is a
  // 2x normalized regression.
  const Artifact lazy = parse_or_die(
      artifact({{"calibrate", 200.0, false}, {"thr", 10.0, false}, {"lat", 100.0, true}}));
  EXPECT_EQ(compare(base, lazy, 0.15, out, err), 1);
}

TEST(PerfCompare, RatchetAdmitsOnlySidewaysOrUp) {
  std::ostringstream out;
  std::ostringstream err;
  const Artifact base = parse_or_die(
      artifact({{"calibrate", 100.0, false}, {"thr", 10.0, false}, {"lat", 100.0, true}}));
  const Artifact improved = parse_or_die(
      artifact({{"calibrate", 100.0, false}, {"thr", 12.0, false}, {"lat", 80.0, true}}));
  EXPECT_TRUE(ratchet_allows(base, improved, 0.15, out, err));
  const Artifact lat_regressed = parse_or_die(
      artifact({{"calibrate", 100.0, false}, {"thr", 12.0, false}, {"lat", 200.0, true}}));
  EXPECT_FALSE(ratchet_allows(base, lat_regressed, 0.15, out, err));
  const Artifact dropped =
      parse_or_die(artifact({{"calibrate", 100.0, false}, {"thr", 10.0, false}}));
  EXPECT_FALSE(ratchet_allows(base, dropped, 0.15, out, err));
}

TEST(PerfCompare, MergedArtifactRoundTrips) {
  const Artifact points = parse_or_die(
      artifact({{"calibrate", 100.0, false}, {"thr", 10.0, false}, {"lat", 100.0, true}}));
  const runner::Json doc = merged_artifact(points, 3);
  std::ostringstream err;
  const auto reparsed = parse_artifact(doc.dump(), "merged", err);
  ASSERT_TRUE(reparsed.has_value()) << err.str();
  EXPECT_EQ(reparsed->points.size(), 3u);
  EXPECT_TRUE(reparsed->points.at("lat").lower_is_better);
  EXPECT_DOUBLE_EQ(reparsed->points.at("thr").value, 10.0);
}

const HostClass kVm4{4, "Intel(R) Xeon(R) Processor"};
const HostClass kVm1{1, "Intel(R) Xeon(R) Processor"};
const HostClass kOtherModel{4, "AMD EPYC 7763 64-Core Processor"};

TEST(PerfCompare, ParsesTheHostClass) {
  const Artifact with = parse_or_die(artifact({{"calibrate", 100.0, false}}, kVm4));
  ASSERT_TRUE(with.host_class.has_value());
  EXPECT_EQ(*with.host_class, kVm4);
  const Artifact without = parse_or_die(artifact({{"calibrate", 100.0, false}}));
  EXPECT_FALSE(without.host_class.has_value());
  std::ostringstream err;
  EXPECT_FALSE(parse_artifact("{\"host_class\":{\"cpus\":4},\"points\":[]}", "t", err));
  EXPECT_FALSE(parse_artifact(
      "{\"host_class\":{\"cpus\":0,\"cpu_model\":\"x\"},\"points\":[]}", "t", err));
}

TEST(PerfCompare, HostSensitivePointsAreTheFiveHandOffPoints) {
  for (const char* name :
       {"host_qd1", "host_qd1_p99_ns", "host_mt", "replay_ftl_sharded", "replay_array"}) {
    EXPECT_TRUE(host_sensitive(name)) << name;
  }
  for (const char* name : {"calibrate", "replay_ftl", "ftl_write", "host_scale_1c"}) {
    EXPECT_FALSE(host_sensitive(name)) << name;
  }
}

TEST(PerfCompare, SameHostClassNeedsTwoEqualRecordedClasses) {
  const Artifact a{{}, kVm4};
  EXPECT_TRUE(same_host_class(a, Artifact{{}, kVm4}));
  EXPECT_FALSE(same_host_class(a, Artifact{{}, kVm1}));          // CPU count
  EXPECT_FALSE(same_host_class(a, Artifact{{}, kOtherModel}));   // CPU model
  EXPECT_FALSE(same_host_class(a, Artifact{}));
  EXPECT_FALSE(same_host_class(Artifact{}, a));
  EXPECT_FALSE(same_host_class(Artifact{}, Artifact{}));  // classless matches nothing
}

TEST(PerfCompare, CompareGatesHostSensitivePointsOnlyWithinOneClass) {
  using Points = std::vector<std::tuple<std::string, double, bool>>;
  const Points base_points{{"calibrate", 100.0, false},
                           {"thr", 10.0, false},
                           {"host_qd1", 10.0, false},
                           {"host_qd1_p99_ns", 100.0, true}};
  // host_qd1 halves and its p99 doubles; thr holds.
  const Points slow_host{{"calibrate", 100.0, false},
                         {"thr", 10.0, false},
                         {"host_qd1", 5.0, false},
                         {"host_qd1_p99_ns", 200.0, true}};
  const Artifact base = parse_or_die(artifact(base_points, kVm4));
  std::ostringstream err;
  {
    std::ostringstream out;
    EXPECT_EQ(compare(base, parse_or_die(artifact(slow_host, kVm4)), 0.15, out, err), 1);
    EXPECT_NE(out.str().find("REGRESSED"), std::string::npos);
  }
  for (const std::optional<HostClass>& other :
       {std::optional<HostClass>{kVm1}, std::optional<HostClass>{kOtherModel},
        std::optional<HostClass>{}}) {
    std::ostringstream out;
    EXPECT_EQ(compare(base, parse_or_die(artifact(slow_host, other)), 0.15, out, err), 0);
    EXPECT_NE(out.str().find("host_qd1: skipped"), std::string::npos) << out.str();
    EXPECT_NE(out.str().find("host_qd1_p99_ns: skipped"), std::string::npos) << out.str();
  }
  // A baseline without a class is a different class, even from another
  // classless run.
  const Artifact classless_base = parse_or_die(artifact(base_points));
  std::ostringstream out;
  EXPECT_EQ(compare(classless_base, parse_or_die(artifact(slow_host)), 0.15, out, err), 0);
  EXPECT_EQ(compare(classless_base, parse_or_die(artifact(slow_host, kVm4)), 0.15, out, err),
            0);
  // The other points stay gated across classes.
  const Points slow_thr{{"calibrate", 100.0, false},
                        {"thr", 5.0, false},
                        {"host_qd1", 10.0, false},
                        {"host_qd1_p99_ns", 100.0, true}};
  EXPECT_EQ(compare(base, parse_or_die(artifact(slow_thr, kVm1)), 0.15, out, err), 1);
}

TEST(PerfCompare, RatchetSkipsHostSensitivePointsAcrossClasses) {
  std::ostringstream out;
  std::ostringstream err;
  const Artifact old_base = parse_or_die(
      artifact({{"calibrate", 100.0, false}, {"thr", 10.0, false}, {"host_mt", 10.0, false}}));
  const Artifact slower_host_mt = parse_or_die(artifact(
      {{"calibrate", 100.0, false}, {"thr", 10.0, false}, {"host_mt", 5.0, false}}, kVm4));
  // The classless old baseline's host_mt does not bind a classed candidate...
  EXPECT_TRUE(ratchet_allows(old_base, slower_host_mt, 0.15, out, err));
  EXPECT_NE(out.str().find("host_mt skipped"), std::string::npos);
  // ...nor does it need to be present in one.
  EXPECT_TRUE(ratchet_allows(
      old_base,
      parse_or_die(artifact({{"calibrate", 100.0, false}, {"thr", 10.0, false}}, kVm4)), 0.15,
      out, err));
  // Within one class it does bind.
  const Artifact same_class_old = parse_or_die(artifact(
      {{"calibrate", 100.0, false}, {"thr", 10.0, false}, {"host_mt", 10.0, false}}, kVm4));
  EXPECT_FALSE(ratchet_allows(same_class_old, slower_host_mt, 0.15, out, err));
  // Other points bind across classes.
  const Artifact slower_thr = parse_or_die(artifact(
      {{"calibrate", 100.0, false}, {"thr", 5.0, false}, {"host_mt", 10.0, false}}, kVm1));
  EXPECT_FALSE(ratchet_allows(same_class_old, slower_thr, 0.15, out, err));
}

TEST(PerfCompare, MergeTakesHostSensitivePointsOnlyFromTheLastInputsClass) {
  // The usual re-baseline: the old classless baseline first, fresh runs of
  // this host's class last.
  const Artifact old_base = parse_or_die(artifact(
      {{"calibrate", 100.0, false}, {"thr", 12.0, false}, {"host_qd1", 30.0, false}}));
  const Artifact other_class = parse_or_die(artifact(
      {{"calibrate", 100.0, false}, {"thr", 9.0, false}, {"host_qd1", 40.0, false}}, kVm1));
  const Artifact run1 = parse_or_die(artifact(
      {{"calibrate", 100.0, false}, {"thr", 10.0, false}, {"host_qd1", 5.0, false}}, kVm4));
  const Artifact run2 = parse_or_die(artifact(
      {{"calibrate", 100.0, false}, {"thr", 11.0, false}, {"host_qd1", 6.0, false}}, kVm4));
  const Artifact merged = merge_artifacts({old_base, other_class, run1, run2});
  ASSERT_TRUE(merged.host_class.has_value());
  EXPECT_EQ(*merged.host_class, kVm4);
  EXPECT_DOUBLE_EQ(merged.points.at("host_qd1").value, 6.0);  // best of run1/run2 only
  EXPECT_DOUBLE_EQ(merged.points.at("thr").value, 12.0);      // best of every input

  // A classless last input: a classless result with no host-sensitive point.
  const Artifact classless = merge_artifacts({run1, old_base});
  EXPECT_FALSE(classless.host_class.has_value());
  EXPECT_EQ(classless.points.count("host_qd1"), 0u);
  EXPECT_DOUBLE_EQ(classless.points.at("thr").value, 12.0);
}

TEST(PerfCompare, MergedArtifactKeepsTheHostClass) {
  const Artifact points = parse_or_die(
      artifact({{"calibrate", 100.0, false}, {"host_mt", 10.0, false}}, kVm4));
  const runner::Json doc = merged_artifact(points, 2);
  std::ostringstream err;
  const auto reparsed = parse_artifact(doc.dump(), "merged", err);
  ASSERT_TRUE(reparsed.has_value()) << err.str();
  ASSERT_TRUE(reparsed->host_class.has_value());
  EXPECT_EQ(*reparsed->host_class, kVm4);
  EXPECT_DOUBLE_EQ(reparsed->points.at("host_mt").value, 10.0);
}

TEST(PerfCompare, MergeTakesTheLastInputsCalibrate) {
  // The faster host's calibrate (200) would win a best-of; the result must
  // instead carry the last input's, which its points are normalized by.
  const Artifact fast = parse_or_die(artifact({{"calibrate", 200.0, false}, {"thr", 10.0, false}}));
  const Artifact slow = parse_or_die(artifact({{"calibrate", 100.0, false}, {"thr", 4.0, false}}));
  EXPECT_DOUBLE_EQ(merge_artifacts({fast, slow}).points.at("calibrate").value, 100.0);
  EXPECT_DOUBLE_EQ(merge_artifacts({slow, fast}).points.at("calibrate").value, 200.0);
}

TEST(PerfCompare, MergeRescalesThroughputToTheLastCalibrate) {
  // On a host twice as fast, 10 items/s is worth 5 on the last input's host:
  // it beats that host's own 4 and is written as 5.
  const Artifact fast = parse_or_die(artifact({{"calibrate", 200.0, false}, {"thr", 10.0, false}}));
  const Artifact slow = parse_or_die(artifact({{"calibrate", 100.0, false}, {"thr", 4.0, false}}));
  const Artifact merged = merge_artifacts({fast, slow});
  EXPECT_DOUBLE_EQ(merged.points.at("thr").value, 5.0);
  // Where the last input's own value is better normalized, it stays as is.
  const Artifact slow_better =
      parse_or_die(artifact({{"calibrate", 100.0, false}, {"thr", 6.0, false}}));
  EXPECT_DOUBLE_EQ(merge_artifacts({fast, slow_better}).points.at("thr").value, 6.0);
  // The other way round: 4 on a host half as fast is worth 8 on the fast
  // one, below its own 10.
  EXPECT_DOUBLE_EQ(merge_artifacts({slow, fast}).points.at("thr").value, 10.0);
  const Artifact slow_strong =
      parse_or_die(artifact({{"calibrate", 100.0, false}, {"thr", 6.0, false}}));
  EXPECT_DOUBLE_EQ(merge_artifacts({slow_strong, fast}).points.at("thr").value, 12.0);
}

TEST(PerfCompare, MergeRescalesCostToTheLastCalibrate) {
  // A cost measured on a host twice as fast is doubled: 100 ns there is
  // 200 ns on the last input's host, worse than its own 150.
  const Artifact fast = parse_or_die(artifact({{"calibrate", 200.0, false}, {"lat", 100.0, true}}));
  const Artifact slow = parse_or_die(artifact({{"calibrate", 100.0, false}, {"lat", 150.0, true}}));
  EXPECT_DOUBLE_EQ(merge_artifacts({fast, slow}).points.at("lat").value, 150.0);
  const Artifact slow_worse =
      parse_or_die(artifact({{"calibrate", 100.0, false}, {"lat", 250.0, true}}));
  EXPECT_DOUBLE_EQ(merge_artifacts({fast, slow_worse}).points.at("lat").value, 200.0);
  // Toward the fast host a slow host's cost halves: 150 -> 75 beats 100.
  EXPECT_DOUBLE_EQ(merge_artifacts({slow, fast}).points.at("lat").value, 75.0);
}

TEST(PerfCompare, MergedArtifactWritesRescaledValues) {
  const Artifact fast = parse_or_die(artifact(
      {{"calibrate", 200.0, false}, {"thr", 10.0, false}, {"lat", 100.0, true}}));
  const Artifact slow = parse_or_die(artifact(
      {{"calibrate", 100.0, false}, {"thr", 4.0, false}, {"lat", 250.0, true}}));
  const runner::Json doc = merged_artifact(merge_artifacts({fast, slow}), 2);
  std::ostringstream err;
  const auto reparsed = parse_artifact(doc.dump(), "merged", err);
  ASSERT_TRUE(reparsed.has_value()) << err.str();
  EXPECT_DOUBLE_EQ(reparsed->points.at("calibrate").value, 100.0);
  EXPECT_DOUBLE_EQ(reparsed->points.at("thr").value, 5.0);
  EXPECT_DOUBLE_EQ(reparsed->points.at("lat").value, 200.0);
  EXPECT_TRUE(reparsed->points.at("lat").lower_is_better);
  // Gating the merged artifact against the fast input's own values sees no
  // change: the rescale is exactly the gate's normalization.
  std::ostringstream out;
  EXPECT_EQ(compare(*reparsed, fast, 0.0, out, err), 0) << out.str();
  EXPECT_DOUBLE_EQ(normalized_ratio(reparsed->points.at("thr"), fast.points.at("thr"), 2.0), 1.0);
}

TEST(PerfCompare, MergeTakesInputsWithoutACalibrateUnscaled) {
  const Artifact bare = parse_or_die(artifact({{"thr", 7.0, false}}));
  const Artifact run = parse_or_die(artifact({{"calibrate", 100.0, false}, {"thr", 4.0, false}}));
  const Artifact merged = merge_artifacts({bare, run});
  EXPECT_DOUBLE_EQ(merged.points.at("thr").value, 7.0);
  EXPECT_DOUBLE_EQ(merged.points.at("calibrate").value, 100.0);
  // Without a calibrate in the last input nothing is rescaled, and the
  // result has no calibrate either.
  const Artifact flipped = merge_artifacts({run, bare});
  EXPECT_DOUBLE_EQ(flipped.points.at("thr").value, 7.0);
  EXPECT_EQ(flipped.points.count("calibrate"), 0u);
}

}  // namespace
}  // namespace swl::perf
