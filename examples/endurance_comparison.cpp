// Endurance comparison: the paper's headline experiment in miniature.
// Runs FTL and NFTL with and without the SW Leveler on the same infinite
// synthetic trace until the first block wears out, and shows the first
// failure time plus the erase-count histograms.
//
//   $ ./endurance_comparison
#include <iostream>

#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "stats/histogram.hpp"

int main() {
  using namespace swl;
  using sim::fmt;

  sim::ExperimentScale scale;
  scale.block_count = 96;
  scale.endurance = 150;
  scale.base_trace_days = 0.5;
  scale.seed = 7;

  std::cout << "device: " << scale.block_count << " blocks x 128 pages x 2 KiB MLCx2, "
            << "endurance " << scale.endurance << " cycles\n\n";

  sim::TableWriter table(
      {"layer", "SWL", "first failure (years)", "improvement", "erase dev.", "erase max"});
  for (const sim::LayerKind layer : {sim::LayerKind::ftl, sim::LayerKind::nftl}) {
    const trace::Trace base = sim::make_base_trace(scale, layer);
    const auto run = [&](std::optional<wear::LevelerConfig> lc) {
      return sim::run_infinite_on(scale, layer, lc, base, scale.max_years, true);
    };
    const sim::SimResult baseline = run(std::nullopt);
    wear::LevelerConfig lc;
    lc.k = 0;
    lc.threshold = 100;
    const sim::SimResult with_swl = run(lc);

    const double base_years = baseline.first_failure_years.value_or(scale.max_years);
    const double swl_years = with_swl.first_failure_years.value_or(scale.max_years);
    table.add_row({std::string(sim::to_string(layer)), "no", fmt(base_years, 3), "-",
                   fmt(baseline.erase_summary.stddev, 1),
                   std::to_string(baseline.erase_summary.max)});
    table.add_row({std::string(sim::to_string(layer)), "yes", fmt(swl_years, 3),
                   std::string("+").append(fmt((swl_years / base_years - 1.0) * 100.0, 1)) + "%",
                   fmt(with_swl.erase_summary.stddev, 1),
                   std::to_string(with_swl.erase_summary.max)});

    if (layer == sim::LayerKind::nftl) {
      std::cout << "NFTL erase-count histogram at first failure, without SWL:\n";
      stats::Histogram h1(scale.endurance / 10, 11);
      h1.add_all(baseline.erase_counts);
      std::cout << h1.render() << "\n";
      std::cout << "NFTL erase-count histogram at first failure, with SWL:\n";
      stats::Histogram h2(scale.endurance / 10, 11);
      h2.add_all(with_swl.erase_counts);
      std::cout << h2.render() << "\n";
    }
  }
  std::cout << table.str();
  std::cout << "\npaper reference: FTL +51.2% and NFTL +87.5% first-failure time "
               "(T=100, k=0, 1 GB device)\n";
  return 0;
}
