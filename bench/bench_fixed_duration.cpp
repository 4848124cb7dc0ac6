// The paper's fixed-duration experiments, printed from one sweep:
//
//   Table 4:  "The Average, Standard Deviation, and Maximal Erase Counts of
//             Blocks" after a long run (the paper simulates 10 years; the
//             scaled default runs --years of the same trace);
//   Figure 6: "The Increased Ratio of Block Erases" due to SWL, for FTL (a)
//             and NFTL (b): 100 * erases_with_SWL / erases_without, x-axis k,
//             one row per T;
//   Figure 7: "The Increased Ratio of Live-page Copyings": 100 * copies_with
//             / copies_without. The FTL ratio is much larger because bursty
//             hot writes keep the baseline per-GC live-copy count tiny
//             (Section 5.3).
//
// All three read the same simulations: per layer the baseline and the 16
// (T, k) cells of bench_common's paper grid, run for --years. Table 4's rows
// are four of those cells. Ratios are computed after the sweep, so --jobs
// never changes the numbers.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/report.hpp"

namespace {

using namespace swl;
using sim::fmt;

/// num / den to two decimals, or "n/a" where a run too short to erase
/// anything leaves den at 0.
std::string fmt_ratio(double num, double den) { return den > 0 ? fmt(num / den, 2) : "n/a"; }

void print_table4(const bench::PaperGrid& grid) {
  sim::TableWriter table({"configuration", "Avg.", "Dev.", "Max."});
  for (const sim::LayerKind layer : bench::kPaperLayers) {
    const auto add_row = [&](const std::string& label, const bench::GridPoint& p) {
      const sim::SimResult& r = grid.at(p);
      table.add_row({std::string(sim::to_string(layer)) + " " + label,
                     fmt(r.erase_summary.mean, 1), fmt(r.erase_summary.stddev, 1),
                     std::to_string(r.erase_summary.max)});
    };
    add_row("baseline", {layer});
    for (const std::uint32_t k : {0u, 3u}) {
      for (const double t : {100.0, 1000.0}) {
        add_row("+ SWL + k=" + std::to_string(k) + " + T=" + fmt(t, 0), {layer, t, k});
      }
    }
  }
  std::cout << table.str();
}

/// Figures 6 and 7: per layer, a T x k table of 100 * count(cell) /
/// count(baseline), under a title line describing the baseline.
template <typename Count, typename Describe>
void print_ratio_figure(const bench::PaperGrid& grid, Count count, Describe describe_baseline) {
  for (const sim::LayerKind layer : bench::kPaperLayers) {
    const sim::SimResult& without = grid.at({layer});
    const auto base = static_cast<double>(count(without));
    std::cout << bench::panel_title(layer) << "  [" << describe_baseline(without) << "]\n";
    sim::TableWriter table({"T \\ k", "k=3", "k=2", "k=1", "k=0"});
    for (const double t : bench::kPaperThresholds) {
      std::vector<std::string> row{"T=" + fmt(t, 0)};
      for (const std::uint32_t k : bench::kPaperKs) {
        const auto with = static_cast<double>(count(grid.at({layer, t, k})));
        row.push_back(fmt_ratio(100.0 * with, base));
      }
      table.add_row(std::move(row));
    }
    std::cout << table.str() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::BenchReport report("fixed_duration", opt);
  std::cout << "Table 4: erase-count distribution after " << opt.years
            << " simulated years\n";
  bench::print_scale(opt);

  runner::SweepRunner pool(opt.jobs);
  const bench::PaperGrid grid =
      bench::run_paper_grid(opt, pool, opt.years, /*stop_on_failure=*/false, report);

  print_table4(grid);
  std::cout << "\npaper reference (10y, 1GB): FTL 900/1118/2511; FTL+SWL k=0 T=100 "
               "930/245/2132; NFTL 9192/8112/20903; NFTL+SWL k=0 T=100 9234/609/11507\n";

  std::cout << "\nFigure 6: increased ratio of block erases (%) over " << opt.years
            << " simulated years (baseline = 100)\n\n";
  print_ratio_figure(
      grid, [](const sim::SimResult& r) { return r.counters.total_erases(); },
      [](const sim::SimResult& r) {
        return "baseline erases: " + std::to_string(r.counters.total_erases());
      });
  std::cout << "paper reference: increase < 3.5% on FTL and < 1% on NFTL in all cases\n";

  std::cout << "\nFigure 7: increased ratio of live-page copyings (%) over " << opt.years
            << " simulated years (baseline = 100)\n\n";
  print_ratio_figure(
      grid, [](const sim::SimResult& r) { return r.counters.total_live_copies(); },
      [](const sim::SimResult& r) {
        const auto copies = static_cast<double>(r.counters.total_live_copies());
        return "baseline live copies: " + std::to_string(r.counters.total_live_copies()) +
               ", avg per erase L = " +
               fmt_ratio(copies, static_cast<double>(r.counters.total_erases()));
      });
  std::cout << "paper reference: NFTL increase < 1.5%; FTL up to ~350% at T=100 because the "
               "baseline copy count is tiny under bursty hot writes\n";

  return report.finish();
}
