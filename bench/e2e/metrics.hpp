// Metric catalog and small statistics helpers shared by the e2e workloads.
//
// The two catalogs below are the benchmark's output contract: a plain run
// reports every end-to-end metric, a traced run every per-layer metric, by
// exactly these names and units. They must match BENCHMARK.json at the repo
// root (run.py checks the printed result against it on every run).
#ifndef SWL_BENCH_E2E_METRICS_HPP
#define SWL_BENCH_E2E_METRICS_HPP

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "nand/nand_chip.hpp"
#include "tl/translation_layer.hpp"

namespace swl::e2e {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Wall-clock metrics are host time; everything derived from counters is
/// simulated and repeats exactly for one seed.
inline constexpr std::array<MetricDef, 6> kEndToEnd{{
    {"ops_per_s", "1/s"},
    {"p50_us", "us"},
    {"write_amp", "prog/write"},
    {"lifetime_mwrites", "Mwrites"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
}};

/// Metrics of a layer a workload does not run read 0.
inline constexpr std::array<MetricDef, 58> kPerLayer{{
    {"trace.ns_per_rec", "ns"},
    {"trace.batch_fill", "frac"},
    {"sim.ns_per_rec", "ns"},
    {"sim.lifetime_years", "years"},
    {"tl.fast_path_frac", "frac"},
    {"tl.gc_copies_per_write", "count"},
    {"tl.gc_erases_per_kwrite", "count"},
    {"swl.busy_frac", "frac"},
    {"swl.bet_update_ns", "ns"},
    {"swl.run_us_mean", "us"},
    {"swl.run_us_max", "us"},
    {"swl.collect_us_mean", "us"},
    {"swl.activations", "count"},
    {"swl.collections", "count"},
    {"swl.bet_resets", "count"},
    {"swl.stalls", "count"},
    {"swl.erase_cv", "frac"},
    {"swl.erases_per_kwrite", "count"},
    {"swl.copies_per_kwrite", "count"},
    {"dftl.cmt_hit_frac", "frac"},
    {"dftl.fetches_per_kwrite", "count"},
    {"dftl.map_reads_per_write", "count"},
    {"dftl.writebacks_per_kwrite", "count"},
    {"dftl.batched_writebacks_per_kwrite", "count"},
    {"dftl.gc_rmw_per_kwrite", "count"},
    {"dftl.map_writes_per_write", "count"},
    {"nand.busy_us_per_write", "us"},
    {"nand.busy_us_per_write.host", "us"},
    {"nand.busy_us_per_write.gc", "us"},
    {"nand.busy_us_per_write.swl", "us"},
    {"nand.busy_us_per_write.map", "us"},
    {"nand.unattributed_frac", "frac"},
    {"nand.erases_per_kwrite", "count"},
    {"bdev.rmw_reads_per_sector_write", "count"},
    {"bdev.page_writes_per_sector_write", "count"},
    {"bdev.write_us_p50", "us"},
    {"bdev.write_us_p99", "us"},
    {"bdev.read_us_p50", "us"},
    {"bdev.read_us_p99", "us"},
    {"bdev.gc_write_frac", "frac"},
    {"bdev.gc_write_us_mean", "us"},
    {"host.write_p50_us", "us"},
    {"host.write_p99_us", "us"},
    {"host.read_p50_us", "us"},
    {"host.read_p99_us", "us"},
    {"host.submit_ns_p50", "ns"},
    {"host.submit_ns_p99", "ns"},
    {"host.reap_ns_mean", "ns"},
    {"host.would_blocks_per_kreq", "count"},
    {"host.coalesced_frac", "frac"},
    {"host.drain_batch_mean", "count"},
    {"host.queue_us_p99", "us"},
    {"host.gen_lag_us_p99", "us"},
    {"host.samples", "count"},
    {"bench.episodes", "count"},
    {"bench.trace_overhead_frac", "frac"},
    {"bench.replay_s", "s"},
    {"bench.traced_replay_s", "s"},
}};

/// What one workload run produced: its checks and its metric values.
struct Outcome {
  /// Operations whose result was checked (replayed records, completed
  /// requests, read-back reads).
  std::uint64_t attempted = 0;
  /// Checked operations that failed or returned wrong data.
  std::uint64_t failed = 0;
  /// Failed checks, one line each (printed to stderr).
  std::vector<std::string> problems;
  /// Hash of the final simulated state (empty when the workload is not
  /// deterministic).
  std::string fingerprint;
  std::map<std::string, double, std::less<>> values;

  void set(std::string_view name, double value) {
    values.insert_or_assign(std::string(name), value);
  }
  void fail(std::string problem) { problems.push_back(std::move(problem)); }
  [[nodiscard]] bool correct() const noexcept { return failed == 0 && problems.empty(); }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

/// The q-quantile (nearest rank) of `values`; reorders them. 0 when empty.
template <typename T>
[[nodiscard]] double quantile(std::vector<T>& values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(values.begin(), nth, values.end());
  return static_cast<double>(*nth);
}

template <typename T>
[[nodiscard]] double median(std::vector<T> values) {
  return quantile(values, 0.5);
}

/// The values one metric took over a run's repetitions (episodes, rounds).
/// Per-layer metrics report their median. An end-to-end timing reports the
/// best repetition instead: the repetitions do identical work, and
/// interference from the machine's other tenants only ever slows one down,
/// so the fastest is the closest to what the code itself costs.
class Series {
 public:
  void add(std::string_view name, double value) { values_[std::string(name)].push_back(value); }
  [[nodiscard]] double median_of(std::string_view name) const {
    const std::vector<double>* v = find(name);
    return v == nullptr ? 0.0 : median(*v);
  }
  [[nodiscard]] double min_of(std::string_view name) const {
    const std::vector<double>* v = find(name);
    return v == nullptr ? 0.0 : *std::min_element(v->begin(), v->end());
  }
  [[nodiscard]] double max_of(std::string_view name) const {
    const std::vector<double>* v = find(name);
    return v == nullptr ? 0.0 : *std::max_element(v->begin(), v->end());
  }
  void set_medians(Outcome& out) const {
    for (const auto& [name, values] : values_) out.set(name, median(values));
  }

 private:
  [[nodiscard]] const std::vector<double>* find(std::string_view name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
  }

  std::map<std::string, std::vector<double>, std::less<>> values_;
};

/// a / b, or 0 when b is 0 (a ratio whose base never occurred).
[[nodiscard]] inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Host-visible effects of the translation layer (tl.*) and the simulated
/// NAND busy time split by cause (nand.*), per host page write.
void set_device_metrics(Outcome& out, const tl::TlCounters& tl, const nand::NandCounters& chip,
                        const NandTiming& timing);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace swl::e2e

#endif  // SWL_BENCH_E2E_METRICS_HPP
