#include "sim/experiments.hpp"

#include <algorithm>

#include "trace/segment_replay.hpp"

namespace swl::sim {

ExperimentScale ExperimentScale::paper() {
  ExperimentScale s;
  s.block_count = 4096;  // 1 GB MLC×2
  s.endurance = 10'000;
  s.base_trace_days = 30.0;
  s.max_years = 2'000.0;
  return s;
}

double scaled_threshold(double paper_threshold, const ExperimentScale& scale) {
  return std::max(1.0, paper_threshold * scale.endurance / 10'000.0);
}

SimConfig make_sim_config(const ExperimentScale& scale, LayerKind layer,
                          std::optional<wear::LevelerConfig> leveler) {
  SimConfig config;
  config.geometry = scaled_geometry(make_geometry(scale.cell, 1ULL << 30), scale.block_count);
  config.timing = default_timing(scale.cell);
  config.timing.endurance = scale.endurance;
  config.layer = layer;
  config.leveler = leveler;
  return config;
}

trace::SyntheticConfig make_trace_config(const ExperimentScale& scale, Lba lba_count) {
  trace::SyntheticConfig tc;
  tc.lba_count = lba_count;
  tc.duration_s = scale.base_trace_days * 24 * 3600;
  tc.seed = scale.seed;
  return tc;
}

Lba exported_lba_count(const ExperimentScale& scale, LayerKind layer) {
  // Stand up a throwaway stack; construction is cheap and keeps the sizing
  // rules in exactly one place (the layers themselves).
  return make_simulator(make_sim_config(scale, layer, std::nullopt))->lba_count();
}

trace::Trace make_base_trace(const ExperimentScale& scale, LayerKind layer) {
  return trace::generate_synthetic_trace(
      make_trace_config(scale, exported_lba_count(scale, layer)));
}

SimResult run_config_on(const SimConfig& config, const ExperimentScale& scale,
                        const trace::Trace& base, double years, bool stop_on_failure) {
  auto sim = make_simulator(config);
  trace::SegmentReplaySource source(base, scale.segment_minutes * 60.0, scale.seed ^ 0x1234);
  constexpr std::uint64_t kBatch = 1 << 16;
  while (true) {
    const std::uint64_t n = sim->run(source, years, stop_on_failure, kBatch);
    if (stop_on_failure && sim->chip().first_failure().has_value()) break;
    if (sim->clock().years() >= years) break;
    if (n == 0) break;  // trace ended or device full
  }
  return sim->result();
}

SimResult run_infinite_on(const ExperimentScale& scale, LayerKind layer,
                          std::optional<wear::LevelerConfig> leveler, const trace::Trace& base,
                          double years, bool stop_on_failure) {
  return run_config_on(make_sim_config(scale, layer, leveler), scale, base, years,
                       stop_on_failure);
}

}  // namespace swl::sim
