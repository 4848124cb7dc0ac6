// The benchmark's workloads. Each runs in the calling process on one client
// thread (host_mixed adds one consumer thread per shard: three in total),
// fills an Outcome with its checks and metrics, and never throws for a
// failed check — failures land in Outcome::failed / Outcome::problems.
#ifndef SWL_BENCH_E2E_WORKLOADS_HPP
#define SWL_BENCH_E2E_WORKLOADS_HPP

#include <cstdint>
#include <string_view>

#include "metrics.hpp"
#include "sim/simulator.hpp"

namespace swl::e2e {

struct RunOptions {
  std::uint64_t seed = 42;
  /// Time box for the measured part of the run.
  double seconds = 20.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool traced = false;
  /// Smoke run: the workload at 1/100 of its size, one measurement of each
  /// kind instead of a time box.
  bool smoke = false;
};

/// Replay of segments of a synthetic base trace through one translation
/// layer with the SW Leveler attached (paper T = 100 scaled to the
/// endurance, k = 0), from a freshly formatted device to the first block
/// failure — one "episode". A run repeats identical episodes until its
/// time box is spent.
struct EnduranceSpec {
  std::string_view name;
  sim::LayerKind layer;
  BlockIndex blocks;
  std::uint32_t endurance;
  double trace_days;
};

inline constexpr EnduranceSpec kEnduranceFtl{"endurance_ftl", sim::LayerKind::ftl, 256, 2'500, 4.0};
inline constexpr EnduranceSpec kEnduranceNftl{"endurance_nftl", sim::LayerKind::nftl, 1024, 3'000,
                                              8.0};
inline constexpr EnduranceSpec kEnduranceDftl{"endurance_dftl", sim::LayerKind::dftl, 256, 150,
                                              4.0};

[[nodiscard]] Outcome run_endurance(const EnduranceSpec& spec, const RunOptions& opt);

/// HostScheduler over two FTL + SW Leveler shards driven by one client: a
/// closed loop (phase A) then an open loop at a fixed rate (phase B).
[[nodiscard]] Outcome run_host_mixed(const RunOptions& opt);

}  // namespace swl::e2e

#endif  // SWL_BENCH_E2E_WORKLOADS_HPP
