// Paper-experiment plumbing (Section 5 of the paper).
//
// The evaluation runs the simulator in two shapes, both on an infinite trace
// that replays segments of one finite base trace: until the first block wears
// out (Figure 5) and for a fixed simulated duration (Table 4, Figures 6 and
// 7). run_infinite_on / run_config_on run either shape; the benches sweep
// them over shared base traces.
//
// Experiments run at a configurable scale. The default scale preserves the
// paper's block shape (MLC×2: 128 pages × 2 KB) and hot/cold workload
// structure but shrinks the block count and endurance so a full sweep
// finishes in seconds; ExperimentScale::paper() is the full 1 GB / 10k-cycle
// configuration.
#ifndef SWL_SIM_EXPERIMENTS_HPP
#define SWL_SIM_EXPERIMENTS_HPP

#include <optional>

#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"

namespace swl::sim {

struct ExperimentScale {
  BlockIndex block_count = 256;
  CellType cell = CellType::mlc_x2;
  /// Erase-endurance limit (paper MLC×2: 10,000); scaled down by default so
  /// first-failure runs finish quickly.
  std::uint32_t endurance = 1'000;
  /// Length of the finite base trace the infinite trace replays segments of
  /// (the paper collected one month; segments are 10 minutes). Longer base
  /// traces make cold data colder: a once-written LBA recurs once per
  /// base-trace length on average under segment replay.
  double base_trace_days = 4.0;
  double segment_minutes = 10.0;
  /// Safety horizon for first-failure runs.
  double max_years = 2'000.0;
  std::uint64_t seed = 42;

  /// The paper's full-scale configuration (Section 5.1).
  [[nodiscard]] static ExperimentScale paper();
};

/// Maps a paper threshold T to this scale. The unevenness threshold is
/// calibrated against the endurance budget: a resetting interval covers
/// roughly T * size(BET) erases, so the number of intervals in a device
/// lifetime is ~ endurance / T. Keeping that ratio fixed preserves the
/// paper's leveling cadence at scaled endurance (identity at paper scale).
[[nodiscard]] double scaled_threshold(double paper_threshold, const ExperimentScale& scale);

/// Geometry/timing/layer plumbing for a scale.
[[nodiscard]] SimConfig make_sim_config(const ExperimentScale& scale, LayerKind layer,
                                        std::optional<wear::LevelerConfig> leveler);

/// The calibrated synthetic workload over `lba_count` logical pages.
[[nodiscard]] trace::SyntheticConfig make_trace_config(const ExperimentScale& scale,
                                                       Lba lba_count);

/// Logical pages the given layer kind exports at this scale (what the trace
/// must address).
[[nodiscard]] Lba exported_lba_count(const ExperimentScale& scale, LayerKind layer);

/// Generates the finite base trace the infinite trace replays segments of.
/// Sweeps should generate this once per layer kind and pass it to
/// run_infinite_on / run_config_on below.
[[nodiscard]] trace::Trace make_base_trace(const ExperimentScale& scale, LayerKind layer);

/// Runs `layer` (with SWL when `leveler` is set) on segments of `base` for
/// `years` of simulated time, or until the first block wears out when
/// `stop_on_failure`.
[[nodiscard]] SimResult run_infinite_on(const ExperimentScale& scale, LayerKind layer,
                                        std::optional<wear::LevelerConfig> leveler,
                                        const trace::Trace& base, double years,
                                        bool stop_on_failure);

/// Fully custom variant: the caller builds the SimConfig (alternative
/// levelers, allocation policies, hot/cold separation, ...) and supplies the
/// base trace; segment replay and batching come from `scale`.
[[nodiscard]] SimResult run_config_on(const SimConfig& config, const ExperimentScale& scale,
                                      const trace::Trace& base, double years,
                                      bool stop_on_failure);

}  // namespace swl::sim

#endif  // SWL_SIM_EXPERIMENTS_HPP
