// Deterministic intra-point sharding of segment-replay runs.
//
// A single sweep point (one paper-grid configuration) is a serial replay: one
// simulator, one record stream. Sharding splits that point's record budget
// across N independent *device replicas* — each shard owns a fresh simulator
// over the same SimConfig and replays its own SegmentReplaySource stream,
// seeded per shard — and merges the N SimResults into one aggregate. Because
// every shard is self-contained and the merge is a fixed-order reduction,
// the merged result is a pure function of (config, scale, base trace, total
// records, shard count): running the shards on 1, 2 or 8 worker threads, in
// any completion order, produces bit-identical output. The per-record
// reference loop Simulator::run_serial doubles as the canary: replaying each
// shard through it must merge to the same result as the batched pipeline
// (pinned by the sweep determinism test).
//
// Statistical reading: N shards of B records sample N independent segment
// streams of the same workload, so merged wear/erase aggregates estimate the
// same distribution a serial N*B-record run samples — they are a parallel
// estimator of the same experiment, not a bit-exact re-ordering of it.
#ifndef SWL_SIM_SHARDED_REPLAY_HPP
#define SWL_SIM_SHARDED_REPLAY_HPP

#include <cstdint>
#include <vector>

#include "runner/sweep_runner.hpp"
#include "sim/experiments.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace swl::sim {

/// Per-shard replay seed: splitmix64 over the point seed and the shard
/// index, so shard streams are decorrelated and shard 0 of a 1-shard run
/// still differs from the unsharded stream only by this documented mapping.
[[nodiscard]] std::uint64_t shard_seed(std::uint64_t base_seed, std::uint32_t shard) noexcept;

/// Records shard `shard` replays out of `total` across `shards` shards: an
/// even split with the first total % shards shards taking one extra record,
/// so every record is replayed exactly once whatever the remainder. When
/// shards > total, the tail shards get a zero budget (their replay is an
/// empty run over the correct geometry, and the merge is unaffected).
/// Requires shards >= 1 and shard < shards (throws PreconditionError).
[[nodiscard]] std::uint64_t shard_record_budget(std::uint64_t total, std::uint32_t shards,
                                                std::uint32_t shard);

/// Fixed-order reduction of independent shard results: counters, erase
/// counts and leveler stats sum element-wise; the erase summary is recomputed
/// from the merged counts; elapsed time is the longest shard's; the first
/// failure is the earliest across shards.
[[nodiscard]] SimResult merge_shard_results(const std::vector<SimResult>& shard_results);

/// Runs one shard to completion: a fresh simulator over `config` replaying a
/// shard-seeded SegmentReplaySource for this shard's record budget (capped
/// at the `years` horizon). `use_serial` drives Simulator::run_serial
/// instead of the batched run() — the bit-identical canary path.
[[nodiscard]] SimResult run_replay_shard(const SimConfig& config, const ExperimentScale& scale,
                                         const trace::Trace& base, double years,
                                         std::uint64_t total_records, std::uint32_t shards,
                                         std::uint32_t shard, bool use_serial = false);

/// The full sharded point: runs all shards on `runner` (inline when its
/// jobs == 1) and merges in shard order. The result is independent of the
/// runner's worker count and of scheduling order.
[[nodiscard]] SimResult run_sharded_on(runner::SweepRunner& runner, const SimConfig& config,
                                       const ExperimentScale& scale, const trace::Trace& base,
                                       double years, std::uint64_t total_records,
                                       std::uint32_t shards, bool use_serial = false);

}  // namespace swl::sim

#endif  // SWL_SIM_SHARDED_REPLAY_HPP
