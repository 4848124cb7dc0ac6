// Array-scale endurance sweep: the multi-chip analog of the paper-grid sweeps.
//
// A channels × dies array stripes the host LBA space across chips, so the
// synthetic workload's hot clusters land on *some* chips' stripes and not
// others — exactly the cross-chip skew the GlobalLevelCoordinator exists to
// flatten. Four arms per translation layer:
//
//   baseline        no per-chip SWL, no coordinator
//   swl             per-chip SW Levelers only (T=100, k=0 per the paper)
//   swl+coord(T_x)  per-chip SWL plus the coordinator at unevenness
//                   thresholds 1.05 and 1.2 (page-striping spreads the hot clusters
//                   almost evenly, so cross-chip skew is small — the low
//                   threshold arm shows the coordinator acting, the higher
//                   one shows it holding)
//
// Every arm runs to the array's first block failure (or --years), reporting
// the fig5 statistic (first-failure years) and the metric that only exists
// at array scale: the cross-chip erase variance — mean/stddev/max-over-avg
// of the per-chip mean erase counts — plus the coordinator's migration
// tally. All of it lands in the JSON artifact for trajectory tooling.
//
// Arms run sequentially; each arm's rounds dispatch one task per channel on
// the --jobs pool. Results are bit-identical for every --jobs value (pinned
// by tests/array/array_determinism_test).
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/array_experiment.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace swl;
  using sim::fmt;

  const bench::Options opt = bench::parse_options(argc, argv, bench::kPaperLayers);
  bench::BenchReport report("array", opt);
  std::cout << "Array sweep: first failure + cross-chip wear, 2 channels x 2 dies\n";
  bench::print_scale(opt);

  struct Arm {
    const char* name;
    bool swl;
    bool coordinator;
    double threshold;  // coordinator unevenness trigger (when enabled)
  };
  const Arm arms[] = {
      {"baseline", false, false, 0.0},
      {"swl", true, false, 0.0},
      {"swl+coord(1.05)", true, true, 1.05},
      {"swl+coord(1.2)", true, true, 1.2},
  };
  const sim::LayerKind layers[] = {sim::LayerKind::ftl, sim::LayerKind::nftl};

  runner::SweepRunner pool(opt.jobs);
  for (const sim::LayerKind layer : layers) {
    sim::ArrayScale scale;
    scale.chip = opt.scale;
    scale.channels = 2;
    scale.dies = 2;
    const trace::Trace base = sim::make_array_base_trace(scale, layer);

    std::cout << (layer == sim::LayerKind::ftl ? "(a) FTL" : "(b) NFTL") << "\n";
    sim::TableWriter table({"arm", "first failure (y)", "vs baseline", "cross-chip stddev",
                            "max/avg", "migrations"});
    double baseline_years = 0.0;
    for (const Arm& arm : arms) {
      std::optional<wear::LevelerConfig> leveler;
      if (arm.swl) {
        wear::LevelerConfig lc;
        lc.k = 0;
        lc.threshold = bench::eff_t(opt, 100.0);
        leveler = lc;
      }
      scale.coordinator_enabled = arm.coordinator;
      if (arm.coordinator) {
        scale.coordinator.threshold = arm.threshold;
        // Let exchanged stripes actually diverge before re-evaluating;
        // without a cooldown a near-1 threshold migrates every round and
        // the copy traffic swamps the wear it was meant to level.
        scale.coordinator.cooldown_rounds = 8;
      }

      const sim::ArrayOutcome out =
          sim::run_array_on(pool, scale, layer, leveler, base, opt.scale.max_years,
                            /*total_records=*/UINT64_MAX, /*stop_on_failure=*/true);
      const double years = out.first_failure_years.value_or(opt.scale.max_years);
      if (arm.name == arms[0].name) baseline_years = years;

      const double delta_pct = (years / baseline_years - 1.0) * 100.0;
      table.add_row({arm.name, fmt(years, 3),
                     std::string(delta_pct >= 0 ? "+" : "").append(fmt(delta_pct, 1)) + "%",
                     fmt(out.cross_chip.stddev, 2), fmt(out.cross_chip.max_over_avg, 3),
                     std::to_string(out.coordinator.migrations)});

      runner::Json pj = bench::sim_result_json(out.combined);
      pj.set("layer", sim::to_string(layer));
      pj.set("arm", arm.name);
      pj.set("swl", arm.swl);
      pj.set("coordinator", arm.coordinator);
      if (arm.coordinator) pj.set("coordinator_threshold", arm.threshold);
      pj.set("rounds", out.rounds);
      pj.set("migrations", out.coordinator.migrations);
      pj.set("migration_copies", out.array.migration_copies);
      runner::Json cross = runner::Json::object();
      cross.set("mean", out.cross_chip.mean);
      cross.set("stddev", out.cross_chip.stddev);
      cross.set("min", out.cross_chip.min);
      cross.set("max", out.cross_chip.max);
      cross.set("max_over_avg", out.cross_chip.max_over_avg);
      pj.set("cross_chip", std::move(cross));
      report.add_point(std::move(pj));
    }
    std::cout << table.str() << "\n";
  }

  std::cout << "a working coordinator should push max/avg toward 1 and extend first failure\n"
               "over the swl-only arm when the stripes' temperatures diverge.\n";
  return report.finish();
}
