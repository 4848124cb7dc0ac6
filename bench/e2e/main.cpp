// bench_e2e: the repository's end-to-end benchmark (see README.md).
//
//   bench_e2e --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//   bench_e2e --smoke [--seed S]
//
// Runs one workload in this process, checks its outputs, prints every
// metric as `name value unit`, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 measures the end-to-end metrics, --trace 1 re-runs the workload
// with timing wrappers around the layers and reports the per-layer metrics.
// --smoke runs every workload at 1/100 of its size, plain and traced, with
// all checks. The exit status is 0 only when every check passed.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "metrics.hpp"
#include "runner/json.hpp"
#include "workloads.hpp"

namespace {

using namespace swl;
using namespace swl::e2e;

constexpr std::string_view kUsage =
    "usage: bench_e2e --workload NAME [--seed S] [--seconds N] [--trace 0|1]\n"
    "       bench_e2e --smoke [--seed S]\n"
    "workloads: endurance_ftl endurance_nftl endurance_dftl host_mixed\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "bench_e2e: " << message << '\n' << kUsage;
  std::exit(2);
}

std::uint64_t parse_u64(std::string_view flag, const std::string& value) {
  std::size_t pos = 0;
  unsigned long long parsed = 0;
  try {
    if (value.empty() || value.front() == '-') throw std::invalid_argument(value);
    parsed = std::stoull(value, &pos);
  } catch (const std::logic_error&) {
    pos = 0;
  }
  if (pos == 0 || pos != value.size()) {
    usage_error("invalid value for " + std::string(flag) + ": '" + value + "'");
  }
  return parsed;
}

constexpr std::array<std::string_view, 4> kWorkloads{kEnduranceFtl.name, kEnduranceNftl.name,
                                                      kEnduranceDftl.name, "host_mixed"};

Outcome run_workload(std::string_view name, const RunOptions& opt) {
  if (name == kEnduranceFtl.name) return run_endurance(kEnduranceFtl, opt);
  if (name == kEnduranceNftl.name) return run_endurance(kEnduranceNftl, opt);
  if (name == kEnduranceDftl.name) return run_endurance(kEnduranceDftl, opt);
  return run_host_mixed(opt);
}

/// Prints the selected catalog as `name value unit` lines and returns the
/// same values as the result's "metrics" object.
runner::Json report_metrics(Outcome& out, std::span<const MetricDef> catalog, bool required) {
  runner::Json metrics = runner::Json::object();
  for (const MetricDef& def : catalog) {
    const auto it = out.values.find(def.name);
    double value = it == out.values.end() ? 0.0 : it->second;
    // End-to-end metrics are never 0: a 0 means the workload did not
    // measure what it claims to.
    if (required && (it == out.values.end() || value == 0.0 || !std::isfinite(value))) {
      out.fail("end-to-end metric " + std::string(def.name) + " was not measured");
      value = 0.0;
    }
    std::cout << def.name << ' ' << runner::Json(value).dump(0) << ' ' << def.unit << '\n';
    runner::Json entry = runner::Json::object();
    entry.set("value", value);
    entry.set("unit", def.unit);
    metrics.set(std::string(def.name), std::move(entry));
  }
  return metrics;
}

void print_problems(std::string_view label, const Outcome& out) {
  for (const std::string& p : out.problems) std::cerr << label << ": " << p << '\n';
  if (out.failed > 0) {
    std::cerr << label << ": " << out.failed << " of " << out.attempted
              << " checked operations failed\n";
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  runner::Json metrics) {
  runner::Json result = runner::Json::object();
  result.set("correct", correct);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::cout << result.dump(0) << '\n';
}

/// Every workload at 1/100 of its size, plain and then traced; a traced run
/// must end in the plain run's simulated state.
int run_smoke(const RunOptions& base) {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const std::string_view name : kWorkloads) {
    std::string fingerprint;
    for (const bool traced : {false, true}) {
      RunOptions opt = base;
      opt.smoke = true;
      opt.traced = traced;
      Outcome out = run_workload(name, opt);
      const std::string label = std::string(name) + (traced ? " traced" : " plain");
      if (traced && out.fingerprint != fingerprint) {
        out.fail("traced fingerprint " + out.fingerprint + " != plain " + fingerprint);
      }
      fingerprint = out.fingerprint;
      print_problems(label, out);
      std::cout << "smoke " << label << ": " << (out.correct() ? "ok" : "FAILED") << ", "
                << out.attempted << " checked operations"
                << (out.fingerprint.empty() ? "" : ", fingerprint " + out.fingerprint) << '\n';
      correct = correct && out.correct();
      attempted += out.attempted;
      failed += out.failed;
    }
  }
  print_result(correct, attempted, failed, runner::Json::object());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string workload;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      opt.seed = parse_u64(arg, value());
    } else if (arg == "--seconds") {
      const std::uint64_t s = parse_u64(arg, value());
      if (s == 0 || s > 600) usage_error("--seconds must be in [1, 600]");
      opt.seconds = static_cast<double>(s);
    } else if (arg == "--trace") {
      const std::uint64_t t = parse_u64(arg, value());
      if (t > 1) usage_error("--trace must be 0 or 1");
      opt.traced = t == 1;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (smoke) return run_smoke(opt);
  if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) == kWorkloads.end()) {
    usage_error("unknown or missing --workload '" + workload + "'");
  }

  Outcome out = run_workload(workload, opt);
  if (!opt.traced) out.set("peak_rss_mib", peak_rss_mib());
  std::cout << "workload " << workload << " seed " << opt.seed << " seconds " << opt.seconds
            << (opt.traced ? " traced" : " plain") << '\n';
  if (!out.fingerprint.empty()) std::cout << "fingerprint " << out.fingerprint << '\n';
  runner::Json metrics = opt.traced ? report_metrics(out, kPerLayer, /*required=*/false)
                                    : report_metrics(out, kEndToEnd, /*required=*/true);
  print_problems(workload, out);
  print_result(out.correct(), out.attempted, out.failed, std::move(metrics));
  return out.correct() ? 0 : 1;
}
