// Shared command-line handling, JSON reporting and the paper's T x k sweep
// grid for the table/figure reproduction binaries.
//
// Every binary runs a scaled-down configuration by default (same block shape
// and workload structure as the paper, fewer blocks and lower endurance so a
// full sweep finishes in seconds) and accepts:
//   --paper-scale          the full 1 GB MLC×2 / 10k-cycle configuration
//   --blocks N             block count override
//   --endurance N          endurance override
//   --trace-days D         base-trace length override
//   --years Y              simulated duration of the fixed-duration sweep
//   --seed S               workload seed
//   --jobs N               worker threads (0 = hardware threads). Parallelism
//                          applies across sweep points and across the shards
//                          of sharded replay points; results are identical
//                          for every N
//   --shards N             shard count for sharded replay points (default 8;
//                          the shard count — unlike --jobs — changes what is
//                          computed, so it is part of the experiment config)
//   --json FILE            machine-readable results + wall-clock timing
#ifndef SWL_BENCH_BENCH_COMMON_HPP
#define SWL_BENCH_BENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "core/sync.hpp"
#include "runner/json.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "trace/synthetic.hpp"

namespace swl::bench {

struct Options {
  sim::ExperimentScale scale;
  double years = 0.02;  // simulated duration of bench_fixed_duration's sweep
  bool paper_scale = false;
  unsigned jobs = 0;      // 0 = one worker per hardware thread
  unsigned shards = 8;    // shard count for sharded replay points (>= 1)
  std::string json_path;  // empty = no JSON artifact
};

namespace detail {

[[noreturn]] inline void flag_value_error(const char* flag, const std::string& value,
                                          const std::string& why = "") {
  std::cerr << "invalid value for " << flag << ": '" << value << "'";
  if (!why.empty()) std::cerr << " (" << why << ")";
  std::cerr << "\n";
  std::exit(2);
}

/// std::stoull with the failure modes closed: malformed or trailing garbage
/// exits(2) with a message instead of escaping as an uncaught exception, and
/// negative input is rejected instead of wrapping to a huge unsigned value.
inline std::uint64_t parse_u64(const char* flag, const std::string& value) {
  try {
    if (value.empty() || value.front() == '-') flag_value_error(flag, value);
    std::size_t pos = 0;
    const unsigned long long parsed = std::stoull(value, &pos);
    if (pos != value.size()) flag_value_error(flag, value);
    return parsed;
  } catch (const std::logic_error&) {  // invalid_argument / out_of_range
    flag_value_error(flag, value);
  }
}

/// A count that must be at least 1 and fit in T.
template <typename T>
T parse_count(const char* flag, const std::string& value) {
  const std::uint64_t parsed = parse_u64(flag, value);
  if (parsed == 0 || parsed > std::numeric_limits<T>::max()) flag_value_error(flag, value);
  return static_cast<T>(parsed);
}

/// A finite, strictly positive length (simulated years or trace days).
inline double parse_length(const char* flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(value, &pos);
    if (value.empty() || pos != value.size()) flag_value_error(flag, value);
    if (!std::isfinite(parsed) || parsed <= 0.0) flag_value_error(flag, value);
    return parsed;
  } catch (const std::logic_error&) {
    flag_value_error(flag, value);
  }
}

}  // namespace detail

/// The paper's evaluation grid (Section 5): Figures 5-7 plot every threshold
/// T against every mapping mode k, for FTL (a) and NFTL (b). Table 4 reads
/// four of the cells.
inline constexpr sim::LayerKind kPaperLayers[] = {sim::LayerKind::ftl, sim::LayerKind::nftl};
inline constexpr double kPaperThresholds[] = {100, 400, 700, 1000};
inline constexpr std::uint32_t kPaperKs[] = {3, 2, 1, 0};

/// Pure-ALU spin (xorshift64): no memory traffic, no branches that depend on
/// data — a stable proxy for the host's single-thread speed. Benches report
/// its throughput so perf numbers taken on different machines (or a
/// different turbo state) can be normalized against each other.
inline std::uint64_t calibrate_spin() {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  constexpr std::uint64_t kIters = std::uint64_t{1} << 26;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  // Fold the state into a side effect the optimizer must preserve.
  volatile std::uint64_t sink = x;
  (void)sink;
  return kIters;
}

/// Times one calibrate_spin(): items per second, best of three.
inline double calibrate_items_per_second() {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t items = calibrate_spin();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (seconds > 0.0) best = std::max(best, static_cast<double>(items) / seconds);
  }
  return best;
}

/// The machine class a run measures on: the CPUs the process may run on and
/// the CPU model ("unknown" where /proc/cpuinfo names none). perf_compare
/// gates the host-sensitive bench_micro points only within one class.
inline runner::Json host_class_json() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    const std::size_t start =
        colon == std::string::npos ? colon : line.find_first_not_of(" \t", colon + 1);
    if (start != std::string::npos) model = line.substr(start);
    break;
  }
  runner::Json host = runner::Json::object();
  host.set("cpus", usable_cpu_count());
  host.set("cpu_model", std::move(model));
  return host;
}

/// Parses the flags. `layers` are the translation layers whose base traces
/// the bench replays: each must stand up on the chosen device and its
/// generator must yield a record, or the run exits 2 naming --blocks or
/// --trace-days before any simulation. The layers and the generator decide,
/// so the smallest legal values stay where their rules live.
inline Options parse_options(int argc, char** argv,
                             std::span<const sim::LayerKind> layers = {}) {
  Options opt;  // scaled defaults come from sim::ExperimentScale
  std::string days_arg;  // as typed, for the error message
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--paper-scale") {
      const auto seed = opt.scale.seed;
      opt.scale = sim::ExperimentScale::paper();
      opt.scale.seed = seed;
      opt.years = 10.0;
      opt.paper_scale = true;
    } else if (arg == "--blocks") {
      opt.scale.block_count = detail::parse_count<BlockIndex>("--blocks", need_value("--blocks"));
    } else if (arg == "--endurance") {
      opt.scale.endurance =
          detail::parse_count<std::uint32_t>("--endurance", need_value("--endurance"));
    } else if (arg == "--trace-days") {
      days_arg = need_value("--trace-days");
      opt.scale.base_trace_days = detail::parse_length("--trace-days", days_arg);
    } else if (arg == "--years") {
      opt.years = detail::parse_length("--years", need_value("--years"));
    } else if (arg == "--seed") {
      opt.scale.seed = detail::parse_u64("--seed", need_value("--seed"));
    } else if (arg == "--jobs") {
      opt.jobs = static_cast<unsigned>(detail::parse_u64("--jobs", need_value("--jobs")));
    } else if (arg == "--shards") {
      opt.shards = detail::parse_count<unsigned>("--shards", need_value("--shards"));
    } else if (arg == "--json") {
      opt.json_path = need_value("--json");
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "flags: --paper-scale --blocks N --endurance N --trace-days D "
                   "--years Y --seed S --jobs N --shards N --json FILE\n"
                   "  --jobs N    worker threads (0 = hardware threads); parallelizes across\n"
                   "              sweep points and across shards of sharded replay points.\n"
                   "              Results are bit-identical for every N.\n"
                   "  --shards N  shard count for sharded replay points (default 8, min 1).\n"
                   "              Part of the experiment definition: changing it changes the\n"
                   "              sharded results, changing --jobs never does.\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      std::exit(2);
    }
  }
  for (const sim::LayerKind layer : layers) {
    std::optional<trace::SyntheticTraceSource> source;
    try {
      source.emplace(
          sim::make_trace_config(opt.scale, sim::exported_lba_count(opt.scale, layer)));
    } catch (const std::logic_error& e) {
      detail::flag_value_error("--blocks", std::to_string(opt.scale.block_count),
                               std::string(sim::to_string(layer)) + ": " + e.what());
    }
    if (!source->next().has_value()) {
      detail::flag_value_error("--trace-days", days_arg,
                               std::string(sim::to_string(layer)) + ": the base trace is empty");
    }
  }
  return opt;
}

inline void print_scale(const Options& opt) {
  std::cout << "scale: " << opt.scale.block_count << " blocks x 128 pages x 2 KiB, endurance "
            << opt.scale.endurance << ", base trace " << opt.scale.base_trace_days
            << " day(s), seed " << opt.scale.seed << ", jobs "
            << runner::resolve_jobs(opt.jobs)
            << (opt.paper_scale ? " [paper scale]" : " [scaled default; --paper-scale for full]")
            << "\n\n";
}

/// Effective threshold for a paper T at this scale (see sim::scaled_threshold).
inline double eff_t(const Options& opt, double paper_t) {
  return sim::scaled_threshold(paper_t, opt.scale);
}

/// The SimResult fields worth tracking across PRs, as a JSON object.
inline runner::Json sim_result_json(const sim::SimResult& r) {
  runner::Json j = runner::Json::object();
  if (r.first_failure_years.has_value()) j.set("first_failure_years", *r.first_failure_years);
  j.set("elapsed_years", r.elapsed_years);
  j.set("records_processed", r.records_processed);
  j.set("total_erases", r.counters.total_erases());
  j.set("swl_erases", r.counters.swl_erases);
  j.set("total_live_copies", r.counters.total_live_copies());
  j.set("erase_mean", r.erase_summary.mean);
  j.set("erase_stddev", r.erase_summary.stddev);
  j.set("erase_max", static_cast<std::uint64_t>(r.erase_summary.max));
  // Mapping I/O (zero for in-RAM-map layers; the DFTL's flash-resident map
  // meters every translation-page read/program here).
  j.set("map_reads", r.counters.map_reads);
  j.set("map_writes", r.counters.map_writes);
  j.set("map_write_amplification", r.counters.map_write_amplification());
  // Replay-pipeline diagnostics (wall-clock; see sim::PerfCounters). Unlike
  // everything above these vary run to run — they describe how fast the
  // simulation went, not what it computed.
  runner::Json perf = runner::Json::object();
  perf.set("records_per_second", r.perf.records_per_second());
  perf.set("batch_fill_ratio", r.perf.batch_fill_ratio());
  perf.set("source_ns_per_record", r.perf.source_ns_per_record());
  perf.set("replay_ns_per_record", r.perf.replay_ns_per_record());
  perf.set("fast_path_writes", r.counters.fast_path_writes);
  j.set("perf", std::move(perf));
  return j;
}

/// Wall-clock + results artifact: collects one JSON object per sweep point
/// and, when --json was given, writes
///   {bench, jobs, wall_ms, scale:{...}, points:[...]}
/// to the requested file at the end of the run. Timing starts at
/// construction, so trace generation and table rendering are included — the
/// number is the end-to-end cost a user sees.
class BenchReport {
 public:
  BenchReport(std::string bench_name, const Options& opt)
      : name_(std::move(bench_name)), opt_(opt), start_(std::chrono::steady_clock::now()) {}

  /// Appends a sweep-point object (bench-specific keys + sim_result_json).
  void add_point(runner::Json point) { points_.push(std::move(point)); }

  /// Elapsed wall-clock milliseconds since construction.
  [[nodiscard]] double wall_ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }

  /// Prints the timing line and writes the JSON artifact when requested.
  /// Returns 0 (main's exit code) so benches can `return report.finish();`.
  int finish() {
    const double elapsed = wall_ms();
    std::cout << "\nwall-clock: " << sim::fmt(elapsed, 1) << " ms with "
              << runner::resolve_jobs(opt_.jobs) << " job(s)\n";
    if (opt_.json_path.empty()) return 0;
    runner::Json doc = runner::Json::object();
    doc.set("bench", name_);
    doc.set("jobs", runner::resolve_jobs(opt_.jobs));
    doc.set("wall_ms", elapsed);
    // Host-speed normalizer (see calibrate_spin): lets trajectory tooling
    // compare this artifact's wall_ms across machines. Measured at finish so
    // it reflects the same thermal/turbo state as the run itself.
    doc.set("calibrate_items_per_second", calibrate_items_per_second());
    doc.set("host_class", host_class_json());
    runner::Json scale = runner::Json::object();
    scale.set("block_count", static_cast<std::uint64_t>(opt_.scale.block_count));
    scale.set("endurance", static_cast<std::uint64_t>(opt_.scale.endurance));
    scale.set("base_trace_days", opt_.scale.base_trace_days);
    scale.set("seed", opt_.scale.seed);
    scale.set("paper_scale", opt_.paper_scale);
    scale.set("years", opt_.years);
    doc.set("scale", std::move(scale));
    doc.set("points", std::move(points_));
    std::ofstream out(opt_.json_path);
    if (!out) {
      std::cerr << "cannot write " << opt_.json_path << "\n";
      return 2;
    }
    out << doc.dump() << "\n";
    std::cout << "json: " << opt_.json_path << "\n";
    return 0;
  }

 private:
  std::string name_;
  Options opt_;
  std::chrono::steady_clock::time_point start_;
  runner::Json points_ = runner::Json::array();
};

/// One simulation of the grid, or of a comparison run beside it.
struct GridPoint {
  sim::LayerKind layer;
  double paper_t = 0;  // the paper's T; 0 = the baseline without SWL
  std::uint32_t k = 0;
  bool operator==(const GridPoint&) const = default;
};

/// The point's SWL configuration: none for the baseline, else k and T
/// scaled to this run's endurance (labels show the paper's T).
inline std::optional<wear::LevelerConfig> leveler_config(const Options& opt, const GridPoint& p) {
  if (p.paper_t == 0) return std::nullopt;
  wear::LevelerConfig lc;
  lc.k = p.k;
  lc.threshold = eff_t(opt, p.paper_t);
  return lc;
}

/// The grid's points (per layer the baseline, then every (T, k) cell,
/// T-major) and their results.
struct PaperGrid {
  std::vector<GridPoint> points;
  std::vector<sim::SimResult> results;  // results[i] is the run of points[i]

  /// The result of `p`, which must be one of `points`.
  [[nodiscard]] const sim::SimResult& at(const GridPoint& p) const {
    const auto it = std::find(points.begin(), points.end(), p);
    SWL_REQUIRE(it != points.end(), "not a point of the paper grid");
    return results[static_cast<std::size_t>(it - points.begin())];
  }
};

/// A grid point's JSON object: sim_result_json plus layer, T, k and baseline.
inline runner::Json grid_point_json(const GridPoint& p, const sim::SimResult& r) {
  runner::Json pj = sim_result_json(r);
  pj.set("layer", sim::to_string(p.layer));
  pj.set("T", p.paper_t);
  if (p.paper_t != 0) pj.set("k", p.k);
  pj.set("baseline", p.paper_t == 0);
  return pj;
}

/// sim::make_base_trace for each of `layers`, in that order, generated as
/// tasks on `pool`: at --jobs >= 2 the serial prefix before a sweep is one
/// generation rather than one per layer.
inline std::vector<trace::Trace> make_base_traces(const Options& opt, runner::SweepRunner& pool,
                                                  std::span<const sim::LayerKind> layers) {
  return pool.map(layers.size(),
                  [&](std::size_t i) { return sim::make_base_trace(opt.scale, layers[i]); });
}

/// Runs the whole grid on `pool` for `years` (stopping each point at its
/// first block failure when `stop_on_failure`) and adds each point's
/// grid_point_json to `report`. Every point replays one base trace per layer,
/// generated once and shared read-only, and results come back in point
/// order, so --jobs never changes them.
inline PaperGrid run_paper_grid(const Options& opt, runner::SweepRunner& pool, double years,
                                bool stop_on_failure, BenchReport& report) {
  PaperGrid grid;
  const std::vector<trace::Trace> bases = make_base_traces(opt, pool, kPaperLayers);
  for (const sim::LayerKind layer : kPaperLayers) {
    grid.points.push_back({layer});
    for (const double t : kPaperThresholds) {
      for (const std::uint32_t k : kPaperKs) grid.points.push_back({layer, t, k});
    }
  }
  grid.results = pool.map(grid.points.size(), [&](std::size_t i) {
    const GridPoint& p = grid.points[i];
    const trace::Trace& base = bases[p.layer == kPaperLayers[0] ? 0 : 1];
    return sim::run_infinite_on(opt.scale, p.layer, leveler_config(opt, p), base, years,
                                stop_on_failure);
  });
  for (std::size_t i = 0; i < grid.points.size(); ++i) {
    report.add_point(grid_point_json(grid.points[i], grid.results[i]));
  }
  return grid;
}

/// Panel title of a figure's per-layer table: "(a) FTL", "(b) NFTL".
inline const char* panel_title(sim::LayerKind layer) {
  return layer == sim::LayerKind::ftl ? "(a) FTL" : "(b) NFTL";
}

}  // namespace swl::bench

#endif  // SWL_BENCH_BENCH_COMMON_HPP
