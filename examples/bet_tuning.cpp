// BET tuning: the central engineering trade-off of the paper. For a fixed
// device and workload, sweep the mapping mode k and the unevenness threshold
// T and print, side by side:
//   - the BET's RAM footprint (what a large k buys),
//   - the first failure time (what a small k and small T buy),
//   - the extra erase overhead SWL introduces (what a large T buys).
//
// The 13 sweep points (baseline + 4 k x 3 T) are independent simulations
// over one shared base trace and run concurrently on the sweep runner.
//
//   $ ./bet_tuning [--jobs N] [--json FILE]
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "runner/json.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "swl/bet.hpp"

int main(int argc, char** argv) {
  using namespace swl;
  using sim::fmt;

  unsigned jobs = 0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      jobs = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bet_tuning [--jobs N] [--json FILE]\n";
      return 2;
    }
  }

  sim::ExperimentScale scale;
  scale.block_count = 96;
  scale.endurance = 150;
  scale.base_trace_days = 0.5;
  scale.seed = 21;
  const sim::LayerKind layer = sim::LayerKind::nftl;

  std::cout << "device: " << scale.block_count << " blocks MLCx2, endurance " << scale.endurance
            << "; layer: " << sim::to_string(layer) << "\n\n";

  const trace::Trace base = sim::make_base_trace(scale, layer);

  struct Point {
    std::uint32_t k = 0;
    double t = 0;  // 0 = baseline without SWL
  };
  std::vector<Point> points{{0, 0}};  // baseline first
  for (const std::uint32_t k : {0u, 1u, 2u, 3u}) {
    for (const double t : {50.0, 200.0, 800.0}) points.push_back({k, t});
  }

  runner::SweepRunner pool(jobs);
  const std::vector<sim::SimResult> results = pool.map(points.size(), [&](std::size_t i) {
    std::optional<wear::LevelerConfig> lc;
    if (points[i].t > 0) {
      lc.emplace();
      lc->k = points[i].k;
      lc->threshold = points[i].t;
    }
    return sim::run_infinite_on(scale, layer, lc, base, scale.max_years, true);
  });

  const sim::SimResult& baseline = results[0];
  const double baseline_years = baseline.first_failure_years.value_or(scale.max_years);
  std::cout << "baseline (no SWL): first failure after " << fmt(baseline_years, 3)
            << " years, " << baseline.counters.total_erases() << " erases\n\n";

  runner::Json json_points = runner::Json::array();
  sim::TableWriter table({"k", "T", "BET RAM", "first failure (years)", "vs baseline",
                          "extra erases (%)"});
  for (std::size_t i = 1; i < points.size(); ++i) {
    const sim::SimResult& r = results[i];
    const double years = r.first_failure_years.value_or(scale.max_years);
    // Normalize erase overhead per simulated year against the baseline
    // rate, since runs of different lengths do different amounts of work.
    const double erases_per_year =
        static_cast<double>(r.counters.total_erases()) / r.elapsed_years;
    const double base_rate =
        static_cast<double>(baseline.counters.total_erases()) / baseline.elapsed_years;
    table.add_row({std::to_string(points[i].k), fmt(points[i].t, 0),
                   std::to_string(wear::Bet::size_bytes(scale.block_count, points[i].k)) + "B",
                   fmt(years, 3),
                   std::string("+").append(fmt((years / baseline_years - 1.0) * 100.0, 1)) + "%",
                   fmt((erases_per_year / base_rate - 1.0) * 100.0, 2)});
    runner::Json pj = runner::Json::object();
    pj.set("k", points[i].k);
    pj.set("T", points[i].t);
    pj.set("first_failure_years", years);
    pj.set("total_erases", r.counters.total_erases());
    json_points.push(std::move(pj));
  }
  std::cout << table.str();
  std::cout << "\nreading guide: small T and small k level hardest (longest lifetime, most "
               "overhead); large k shrinks the BET exponentially; k and T both large "
               "degenerates toward the baseline\n";

  if (!json_path.empty()) {
    runner::Json doc = runner::Json::object();
    doc.set("bench", "bet_tuning");
    doc.set("jobs", runner::resolve_jobs(jobs));
    doc.set("points", std::move(json_points));
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    out << doc.dump() << "\n";
  }
  return 0;
}
