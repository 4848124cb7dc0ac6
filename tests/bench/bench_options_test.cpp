// The benches' shared flag parser: every value that would make a sweep
// meaningless or abort it exits 2 with a message naming the flag, before any
// simulation runs.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace swl::bench {
namespace {

Options parse(std::vector<std::string> args, std::span<const sim::LayerKind> layers = {}) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return parse_options(static_cast<int>(argv.size()), argv.data(), layers);
}

void expect_rejected(const std::string& flag, const std::string& value,
                     std::span<const sim::LayerKind> layers = {}) {
  EXPECT_EXIT(parse({flag, value}, layers), ::testing::ExitedWithCode(2),
              "invalid value for " + flag + ": '" + value + "'")
      << flag << " " << value;
}

TEST(BenchOptions, ParsesValidValues) {
  const Options opt = parse({"--blocks", "64", "--endurance", "100", "--trace-days", "0.25",
                             "--years", "0.002", "--seed", "7", "--jobs", "2"});
  EXPECT_EQ(opt.scale.block_count, 64u);
  EXPECT_EQ(opt.scale.endurance, 100u);
  EXPECT_DOUBLE_EQ(opt.scale.base_trace_days, 0.25);
  EXPECT_DOUBLE_EQ(opt.years, 0.002);
  EXPECT_EQ(opt.scale.seed, 7u);
  EXPECT_EQ(opt.jobs, 2u);
}

TEST(BenchOptions, RejectsNonPositiveOrNonFiniteYears) {
  for (const char* v : {"-1", "0", "nan", "inf", "-inf"}) expect_rejected("--years", v);
}

TEST(BenchOptions, RejectsNonPositiveOrNonFiniteTraceDays) {
  for (const char* v : {"-1", "0", "nan", "inf"}) expect_rejected("--trace-days", v);
}

TEST(BenchOptions, RejectsZeroOrOversizedBlocks) {
  for (const char* v : {"0", "4294967296"}) expect_rejected("--blocks", v);
}

TEST(BenchOptions, RejectsZeroOrOversizedEndurance) {
  for (const char* v : {"0", "4294967296"}) expect_rejected("--endurance", v);
}

TEST(BenchOptions, RejectsZeroOrOversizedShards) {
  for (const char* v : {"0", "4294967296"}) expect_rejected("--shards", v);
}

// Values the parser alone accepts but the bench's layers or its trace
// generator cannot run: rejected before any simulation, not by an abort
// mid-sweep.
TEST(BenchOptions, RejectsADeviceTooSmallForTheLayers) {
  for (const char* v : {"1", "2"}) expect_rejected("--blocks", v, kPaperLayers);
}

TEST(BenchOptions, RejectsABaseTraceWithNoRecord) {
  expect_rejected("--trace-days", "1e-9", kPaperLayers);
}

TEST(BenchOptions, AcceptsTheSmallestDeviceEachLayerRuns) {
  // FTL and NFTL stand up on three blocks; the DFTL's reserve needs five.
  EXPECT_EQ(parse({"--blocks", "3"}, kPaperLayers).scale.block_count, 3u);
  constexpr sim::LayerKind kWithDftl[] = {sim::LayerKind::ftl, sim::LayerKind::dftl};
  expect_rejected("--blocks", "3", kWithDftl);
  EXPECT_EQ(parse({"--blocks", "5"}, kWithDftl).scale.block_count, 5u);
}

}  // namespace
}  // namespace swl::bench
