// Ablation harness for the design choices DESIGN.md §6 calls out (not a
// table of the paper — engineering evidence behind its claims):
//
//   A. allocation-side dynamic wear leveling (lifo / fifo / coldest-first)
//      with and without SWL — the paper's premise that dynamic wear leveling
//      alone leaves cold blocks behind;
//   B. wear-leveling policy comparison at equal workload: the BET-based SW
//      Leveler (k = 0 and k = 3) against the full-counter oracle, with the
//      RAM each needs — the paper's central cost/benefit claim;
//   C. cyclic scan vs random victim-set selection — Section 3.3's surmise
//      that the cyclic design "is close to that in a random selection
//      policy";
//   D. FTL hot/cold data separation (a stronger Cleaner) with and without
//      SWL — the claim that static wear leveling is orthogonal to dynamic
//      improvements.
//
// The 24 table rows name 18 distinct configurations: six rows of B, C and D
// repeat an A configuration and print its result. The 18 are independent
// simulations over one shared base trace per layer kind (generated once,
// replayed read-only by every worker) and run concurrently on the sweep
// runner.
#include <algorithm>
#include <functional>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/contracts.hpp"
#include "sim/report.hpp"
#include "swl/bet.hpp"
#include "swl/oracle_leveler.hpp"

int main(int argc, char** argv) {
  using namespace swl;
  using sim::fmt;

  bench::Options opt = bench::parse_options(argc, argv);
  bench::BenchReport report("ablation", opt);
  std::cout << "Ablations (first failure time in simulated years; erase-count stddev)\n";
  bench::print_scale(opt);
  const double t100 = bench::eff_t(opt, 100);

  // One immutable base trace per layer kind, shared read-only by all points.
  const trace::Trace ftl_base = sim::make_base_trace(opt.scale, sim::LayerKind::ftl);
  const trace::Trace nftl_base = sim::make_base_trace(opt.scale, sim::LayerKind::nftl);

  // A point whose configuration equals an earlier one's reuses that run.
  struct Run {
    sim::LayerKind layer;
    std::function<void(sim::SimConfig&)> mutate;
  };
  struct Point {
    std::string label;  // for the JSON artifact
    std::size_t run;    // index into runs
  };
  std::vector<Run> runs;
  std::vector<Point> points;
  const auto add_point = [&](std::string label, sim::LayerKind layer,
                             std::function<void(sim::SimConfig&)> mutate) {
    points.push_back({std::move(label), runs.size()});
    runs.push_back({layer, std::move(mutate)});
  };
  const auto add_repeat = [&](std::string label, const std::string& same_as) {
    const auto it = std::find_if(points.begin(), points.end(),
                                 [&](const Point& p) { return p.label == same_as; });
    SWL_REQUIRE(it != points.end(), "a repeat names an earlier point");
    points.push_back({std::move(label), it->run});
  };
  const auto swl_cfg = [&]() {
    wear::LevelerConfig lc;
    lc.threshold = t100;
    return lc;
  };

  // A. allocation policy x SWL.
  const tl::AllocPolicy policies[] = {tl::AllocPolicy::lifo, tl::AllocPolicy::fifo,
                                      tl::AllocPolicy::coldest_first};
  for (const sim::LayerKind layer : {sim::LayerKind::ftl, sim::LayerKind::nftl}) {
    for (const tl::AllocPolicy policy : policies) {
      for (const bool with_swl : {false, true}) {
        add_point("A/" + std::string(sim::to_string(layer)) + "/" +
                      std::string(to_string(policy)) + (with_swl ? "/swl" : "/noswl"),
                  layer, [=](sim::SimConfig& c) {
                    c.ftl.alloc_policy = policy;
                    c.nftl.alloc_policy = policy;
                    if (with_swl) c.leveler = swl_cfg();
                  });
      }
    }
  }
  // B. leveling policy vs RAM cost (NFTL). The defaults are fifo allocation,
  // cyclic selection and k = 0, so "none" and "bet-k0" are A's NFTL/fifo runs.
  add_repeat("B/none", "A/NFTL/fifo/noswl");
  add_repeat("B/bet-k0", "A/NFTL/fifo/swl");
  add_point("B/bet-k3", sim::LayerKind::nftl, [=](sim::SimConfig& c) {
    c.leveler = swl_cfg();
    c.leveler->k = 3;
  });
  const std::uint32_t oracle_gap = std::max<std::uint32_t>(2, opt.scale.endurance / 50);
  add_point("B/oracle", sim::LayerKind::nftl, [=](sim::SimConfig& c) {
    c.oracle_leveler.emplace();
    c.oracle_leveler->gap_threshold = oracle_gap;
  });
  // C. victim-set selection policy; cyclic scan is the default, so the cyclic
  // points are A's fifo/swl runs.
  for (const sim::LayerKind layer : {sim::LayerKind::ftl, sim::LayerKind::nftl}) {
    const std::string name(sim::to_string(layer));
    add_repeat("C/" + name + "/cyclic", "A/" + name + "/fifo/swl");
    add_point("C/" + name + "/random", layer, [=](sim::SimConfig& c) {
      c.leveler = swl_cfg();
      c.leveler->selection = wear::LevelerConfig::Selection::random;
    });
  }
  // D. FTL hot/cold separation x SWL; without separation (the default) the
  // points are A's FTL/fifo runs.
  add_repeat("D/nosep/noswl", "A/FTL/fifo/noswl");
  add_repeat("D/nosep/swl", "A/FTL/fifo/swl");
  for (const bool with_swl : {false, true}) {
    add_point(std::string("D/sep") + (with_swl ? "/swl" : "/noswl"), sim::LayerKind::ftl,
              [=](sim::SimConfig& c) {
                c.ftl.hot_cold_separation = true;
                if (with_swl) c.leveler = swl_cfg();
              });
  }

  runner::SweepRunner pool(opt.jobs);
  const std::vector<sim::SimResult> results = pool.map(runs.size(), [&](std::size_t i) {
    sim::SimConfig config = sim::make_sim_config(opt.scale, runs[i].layer, std::nullopt);
    runs[i].mutate(config);
    const trace::Trace& base = runs[i].layer == sim::LayerKind::ftl ? ftl_base : nftl_base;
    return sim::run_config_on(config, opt.scale, base, opt.scale.max_years,
                              /*stop_on_failure=*/true);
  });
  const auto result_of = [&](std::size_t i) -> const sim::SimResult& {
    return results[points[i].run];
  };

  std::size_t idx = 0;
  {
    std::cout << "A. allocation policy x SWL (paper premise: dynamic WL alone is not enough)\n";
    sim::TableWriter table({"layer", "allocation", "SWL", "first failure (y)", "dev"});
    for (const sim::LayerKind layer : {sim::LayerKind::ftl, sim::LayerKind::nftl}) {
      for (const tl::AllocPolicy policy : policies) {
        for (const bool with_swl : {false, true}) {
          const sim::SimResult& r = result_of(idx++);
          table.add_row({std::string(sim::to_string(layer)), std::string(to_string(policy)),
                         with_swl ? "yes" : "no",
                         fmt(r.first_failure_years.value_or(opt.scale.max_years), 4),
                         fmt(r.erase_summary.stddev, 1)});
        }
      }
    }
    std::cout << table.str() << "\n";
  }

  {
    std::cout << "B. leveling policy vs RAM cost (NFTL)\n";
    sim::TableWriter table({"policy", "RAM", "first failure (y)", "dev", "extra erases"});
    const sim::SimResult& base = result_of(idx++);  // the "B/none" point
    const auto add = [&](const char* name, std::uint64_t ram, const sim::SimResult& r) {
      const double extra =
          100.0 * (static_cast<double>(r.counters.total_erases()) /
                       static_cast<double>(base.counters.total_erases()) * base.elapsed_years /
                       r.elapsed_years -
                   1.0);
      table.add_row({name, ram == 0 ? "-" : std::to_string(ram) + "B",
                     fmt(r.first_failure_years.value_or(opt.scale.max_years), 4),
                     fmt(r.erase_summary.stddev, 1), fmt(extra, 1) + "%"});
    };
    add("none", 0, base);
    add("SWL (BET, k=0)", wear::Bet::size_bytes(opt.scale.block_count, 0), result_of(idx++));
    add("SWL (BET, k=3)", wear::Bet::size_bytes(opt.scale.block_count, 3), result_of(idx++));
    add("oracle (32-bit counters)", wear::OracleLeveler::size_bytes(opt.scale.block_count),
        result_of(idx++));
    std::cout << table.str() << "\n";
  }

  {
    std::cout << "C. victim-set selection policy (Section 3.3's surmise)\n";
    sim::TableWriter table({"selection", "layer", "first failure (y)", "dev"});
    for (const sim::LayerKind layer : {sim::LayerKind::ftl, sim::LayerKind::nftl}) {
      for (const auto sel : {wear::LevelerConfig::Selection::cyclic_scan,
                             wear::LevelerConfig::Selection::random}) {
        const sim::SimResult& r = result_of(idx++);
        table.add_row(
            {sel == wear::LevelerConfig::Selection::cyclic_scan ? "cyclic scan" : "random",
             std::string(sim::to_string(layer)),
             fmt(r.first_failure_years.value_or(opt.scale.max_years), 4),
             fmt(r.erase_summary.stddev, 1)});
      }
    }
    std::cout << table.str() << "\n";
  }

  {
    std::cout << "D. FTL hot/cold separation x SWL (orthogonality)\n";
    sim::TableWriter table({"separation", "SWL", "first failure (y)", "dev", "live copies"});
    for (const bool separate : {false, true}) {
      for (const bool with_swl : {false, true}) {
        const sim::SimResult& r = result_of(idx++);
        table.add_row({separate ? "yes" : "no", with_swl ? "yes" : "no",
                       fmt(r.first_failure_years.value_or(opt.scale.max_years), 4),
                       fmt(r.erase_summary.stddev, 1),
                       std::to_string(r.counters.total_live_copies())});
      }
    }
    std::cout << table.str();
  }

  for (std::size_t i = 0; i < points.size(); ++i) {
    runner::Json pj = bench::sim_result_json(result_of(i));
    pj.set("label", points[i].label);
    pj.set("layer", sim::to_string(runs[points[i].run].layer));
    report.add_point(std::move(pj));
  }
  return report.finish();
}
