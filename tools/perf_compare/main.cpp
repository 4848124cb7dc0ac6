// Perf-regression comparator for the bench_micro artifact (CLI; the logic
// lives in compare.cpp so tests can exercise it without process spawning).
//
// Compare mode (the CI gate):
//
//   perf_compare BASELINE.json CURRENT.json [--max-regression PCT]
//
// Both files are bench_micro --json output. The comparator normalizes for
// machine speed using the `calibrate` point — a pure-ALU spin whose
// throughput tracks the host, not the code under test — then fails (exit 1)
// when any benchmark present in the baseline regressed by more than the
// threshold (default 15%) after normalization. Points marked
// "lower_is_better": true (latency metrics such as host_qd1_p99_ns) gate in
// the opposite direction: the current value, scaled *up* by the machine
// speed factor, must not exceed the baseline by more than the threshold.
//
// Benchmarks missing from the current run fail the gate (a silently dropped
// benchmark is not a pass); new benchmarks only in the current run are
// reported and ignored. The host-sensitive points (host_qd1,
// host_qd1_p99_ns, host_mt, replay_ftl_sharded, replay_array) measure thread
// hand-offs and parallel speed-up, so they are gated only when both
// artifacts record the same host class (usable CPU count and CPU model);
// otherwise they are printed as skipped. Exit codes: 0 ok, 1 regression,
// 2 usage/bad input.
//
// Merge mode:
//
//   perf_compare --merge OUT.json IN1.json IN2.json [IN3.json ...]
//
// Writes an artifact holding, per benchmark, the best point across the
// inputs (highest throughput, or lowest cost for lower-is-better points).
// The result takes the last input's `calibrate` and host class. Every
// input's points are first rescaled to that calibrate (and written
// rescaled), so each kept point is normalized by the calibrate it is stored
// with; host-sensitive points come only from inputs of the last input's
// class.
// Process-level effects (address-space layout, transparent huge pages) make
// individual invocations of a benchmark differ far more than repetitions
// inside one process, so both the committed baseline and the CI measurement
// are best-of-several *invocations*, merged with this mode, before being
// compared.
//
// Baseline-update mode:
//
//   perf_compare --update-baseline BASELINE.json IN1.json [IN2.json ...]
//                [--ratchet] [--max-regression PCT]
//
// One-command re-baseline: merges the inputs (best-of per benchmark, same
// rule as --merge) and writes the result over BASELINE.json. With
// --ratchet the write is refused (exit 1) when any benchmark already in the
// old baseline would regress beyond the threshold after calibrate
// normalization (host-sensitive points only when the old baseline has the
// new one's host class) — the baseline may only move sideways-or-up, so an
// accidental re-baseline cannot launder a real regression. A missing or
// unreadable old baseline is not an error: the first baseline has nothing
// to ratchet against.
//
// After an intentional perf change, re-baseline by committing a fresh
// merged artifact as bench/BENCH_micro.json (see README).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "perf_compare/compare.hpp"

namespace {

using swl::perf::Artifact;

int write_artifact(const std::string& out_path, Artifact artifact, std::size_t input_count) {
  const swl::runner::Json doc = swl::perf::merged_artifact(std::move(artifact), input_count);
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "perf_compare: cannot write " << out_path << "\n";
    return 2;
  }
  out << doc.dump() << "\n";
  std::cout << "merged " << input_count << " artifact(s) into " << out_path << "\n";
  return 0;
}

std::optional<Artifact> merge_inputs(const std::vector<std::string>& inputs) {
  std::vector<Artifact> artifacts;
  artifacts.reserve(inputs.size());
  for (const std::string& path : inputs) {
    auto artifact = swl::perf::load_artifact(path, std::cerr);
    if (!artifact.has_value()) return std::nullopt;
    artifacts.push_back(std::move(*artifact));
  }
  return swl::perf::merge_artifacts(artifacts);
}

int merge(const std::string& out_path, const std::vector<std::string>& inputs) {
  auto best = merge_inputs(inputs);
  if (!best.has_value()) return 2;
  return write_artifact(out_path, std::move(*best), inputs.size());
}

int update_baseline(const std::string& baseline_path, const std::vector<std::string>& inputs,
                    bool ratchet, double threshold) {
  auto best = merge_inputs(inputs);
  if (!best.has_value()) return 2;
  if (ratchet) {
    // Swallow load errors on purpose: the first-ever baseline (or one from a
    // pre-gate era) has nothing to ratchet against.
    std::ifstream probe(baseline_path);
    if (probe) {
      probe.close();
      std::ostringstream sink;
      const auto old_baseline = swl::perf::load_artifact(baseline_path, sink);
      if (old_baseline.has_value() &&
          !swl::perf::ratchet_allows(*old_baseline, *best, threshold, std::cout, std::cerr)) {
        std::cerr << "perf_compare: refusing to update " << baseline_path
                  << " — existing baseline point(s) would regress beyond " << threshold * 100.0
                  << "% (rerun without --ratchet to force)\n";
        return 1;
      }
    } else {
      std::cout << "no existing baseline at " << baseline_path << "; nothing to ratchet\n";
    }
  }
  return write_artifact(baseline_path, std::move(*best), inputs.size());
}

int compare_files(const std::string& baseline_path, const std::string& current_path,
                  double threshold) {
  const auto baseline = swl::perf::load_artifact(baseline_path, std::cerr);
  const auto current = swl::perf::load_artifact(current_path, std::cerr);
  if (!baseline.has_value() || !current.has_value()) return 2;
  return swl::perf::compare(*baseline, *current, threshold, std::cout, std::cerr);
}

void usage(std::ostream& os) {
  os << "usage: perf_compare BASELINE.json CURRENT.json [--max-regression 0.15]\n"
        "       perf_compare --merge OUT.json IN1.json IN2.json [...]\n"
        "       perf_compare --update-baseline BASELINE.json IN1.json [IN2.json ...]\n"
        "                    [--ratchet] [--max-regression 0.15]\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double threshold = 0.15;
  bool merge_mode = false;
  bool update_mode = false;
  bool ratchet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-regression") {
      if (i + 1 >= argc) {
        std::cerr << "--max-regression needs a value (fraction, e.g. 0.15)\n";
        return 2;
      }
      try {
        threshold = std::stod(argv[++i]);
      } catch (const std::logic_error&) {
        std::cerr << "invalid --max-regression value\n";
        return 2;
      }
      if (threshold <= 0.0 || threshold >= 1.0) {
        std::cerr << "--max-regression must be in (0, 1)\n";
        return 2;
      }
    } else if (arg == "--merge") {
      merge_mode = true;
    } else if (arg == "--update-baseline") {
      update_mode = true;
    } else if (arg == "--ratchet") {
      ratchet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (merge_mode && update_mode) {
    std::cerr << "--merge and --update-baseline are mutually exclusive\n";
    return 2;
  }
  if (ratchet && !update_mode) {
    std::cerr << "--ratchet only applies to --update-baseline\n";
    return 2;
  }
  if (merge_mode) {
    if (paths.size() < 3) {
      usage(std::cerr);
      return 2;
    }
    return merge(paths[0], std::vector<std::string>(paths.begin() + 1, paths.end()));
  }
  if (update_mode) {
    if (paths.size() < 2) {
      usage(std::cerr);
      return 2;
    }
    return update_baseline(paths[0], std::vector<std::string>(paths.begin() + 1, paths.end()),
                           ratchet, threshold);
  }
  if (paths.size() != 2) {
    usage(std::cerr);
    return 2;
  }
  return compare_files(paths[0], paths[1], threshold);
}
