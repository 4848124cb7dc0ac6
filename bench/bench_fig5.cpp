// Figure 5 of the paper: "The First Failure Time" for FTL (a) and NFTL (b).
//
// x-axis: mapping mode k in {3,2,1,0}; one curve per threshold
// T in {100, 400, 700, 1000}; horizontal baseline: the layer without SWL.
// Reported in simulated years until the first block reaches its endurance
// limit, on the infinite segment-replayed synthetic trace.
//
// Section (c) extends the figure beyond the paper: the DFTL (flash-resident
// page map, src/dftl) against the in-RAM FTL with SWL off and on, including
// the mapping-write amplification its translation-page traffic costs.
//
// All 34 grid points (2 layers x (1 baseline + 4 T x 4 k), bench_common's
// paper grid) are independent simulations over a shared immutable base trace
// per layer, so they run concurrently on the sweep runner; --jobs only
// changes wall-clock time.
// Parallelism stays at the point level: intra-point sharding (see
// sim/sharded_replay.hpp, used by bench_micro's replay_ftl_sharded point)
// does not apply here, because the minimum first-failure time over N device
// replicas is a different statistic than one device's first failure.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace swl;
  using sim::fmt;

  const bench::Options opt = bench::parse_options(argc, argv);
  bench::BenchReport report("fig5", opt);
  std::cout << "Figure 5: first failure time (simulated years until any block wears out)\n";
  bench::print_scale(opt);
  if (!opt.paper_scale) {
    std::cout << "note: thresholds are scaled with endurance (T_eff = T * endurance/10000) so\n"
                 "the leveling cadence per device lifetime matches the paper; row labels show\n"
                 "the paper's T.\n\n";
  }

  runner::SweepRunner pool(opt.jobs);
  const bench::PaperGrid grid =
      bench::run_paper_grid(opt, pool, opt.scale.max_years, /*stop_on_failure=*/true, report);

  const auto years_of = [&](const sim::SimResult& r) {
    return r.first_failure_years.value_or(opt.scale.max_years);
  };
  for (const sim::LayerKind layer : bench::kPaperLayers) {
    const double baseline = years_of(grid.at({layer}));
    std::cout << bench::panel_title(layer) << "  [baseline without SWL: " << fmt(baseline, 3)
              << " years]\n";
    sim::TableWriter table({"T \\ k", "k=3", "k=2", "k=1", "k=0", "best improvement"});
    for (const double t : bench::kPaperThresholds) {
      std::vector<std::string> row{"T=" + fmt(t, 0)};
      double best = 0.0;
      for (const std::uint32_t k : bench::kPaperKs) {
        const double years = years_of(grid.at({layer, t, k}));
        best = std::max(best, years);
        row.push_back(fmt(years, 3));
      }
      const double change = (best / baseline - 1.0) * 100.0;
      row.push_back(std::string(change < 0 ? "" : "+").append(fmt(change, 1)).append("%"));
      table.add_row(std::move(row));
    }
    std::cout << table.str() << "\n";
  }

  // (c) Flash-resident mapping: the same first-failure experiment for the
  // DFTL against the in-RAM FTL, SWL off and on (T=100, k=0 — the paper's
  // headline configuration). The DFTL's translation-page traffic adds map
  // wear on top of the host writes, so its first failure lands earlier; the
  // mapping-write amplification column quantifies that overhead. The FTL rows
  // are (a)'s runs; only the two DFTL runs are new.
  {
    const bench::GridPoint rows[] = {{sim::LayerKind::ftl},
                                     {sim::LayerKind::ftl, 100, 0},
                                     {sim::LayerKind::dftl},
                                     {sim::LayerKind::dftl, 100, 0}};
    const trace::Trace dftl_base = sim::make_base_trace(opt.scale, sim::LayerKind::dftl);
    const std::vector<sim::SimResult> dftl = pool.map(2, [&](std::size_t i) {
      return sim::run_infinite_on(opt.scale, sim::LayerKind::dftl,
                                  bench::leveler_config(opt, rows[2 + i]), dftl_base,
                                  opt.scale.max_years, /*stop_on_failure=*/true);
    });
    std::cout << "(c) DFTL (flash-resident map) vs FTL, SWL off / on (T=100, k=0)\n";
    sim::TableWriter table({"layer", "SWL", "first failure (years)", "map-write amplification"});
    for (std::size_t i = 0; i < std::size(rows); ++i) {
      const sim::SimResult& r = i < 2 ? grid.at(rows[i]) : dftl[i - 2];
      table.add_row({std::string(sim::to_string(rows[i].layer)),
                     rows[i].paper_t != 0 ? "on" : "off", fmt(years_of(r), 3),
                     fmt(r.counters.map_write_amplification(), 4)});
      runner::Json pj = bench::grid_point_json(rows[i], r);
      pj.set("dftl_comparison", true);
      report.add_point(std::move(pj));
    }
    std::cout << table.str() << "\n";
  }

  std::cout << "paper reference: FTL improved by 51.2% (T=100, k=0 reported; larger k "
               "saturates higher), NFTL improved by 87.5% (T=100, k=0)\n";
  return report.finish();
}
