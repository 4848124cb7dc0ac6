// Core logic of the perf-regression comparator (tools/perf_compare), split
// from the CLI so tests/tools can drive it on in-memory artifacts.
//
// An artifact is bench_micro --json output: {bench, points:[{name, items,
// seconds, items_per_second, ...}]}. Machine speed is normalized away via
// the `calibrate` point (pure-ALU spin). Two metric directions exist:
//
//   higher-is-better (default)     items_per_second is a throughput;
//                                  normalized = current / speed
//   lower-is-better                the point carries "lower_is_better": true
//                                  and items_per_second holds a cost metric
//                                  (e.g. p99 latency in ns); a faster
//                                  machine shrinks it, so the normalization
//                                  *multiplies*: normalized = current * speed
//
// Both directions share one gate formula via normalized_ratio(): ratio >= 1
// means at-least-as-good, and `ratio < 1 - threshold` is a regression.
//
// Host classes: an artifact records the machine it ran on ("host_class":
// usable CPU count and CPU model). A few points measure thread hand-offs or
// parallel speed-up, which depend on the core count and wake-up cost far more
// than `calibrate` can normalize away; those host-sensitive points are gated,
// ratcheted and merged only between artifacts of one class. An artifact
// without a class (older than the field) matches no class.
#ifndef SWL_TOOLS_PERF_COMPARE_COMPARE_HPP
#define SWL_TOOLS_PERF_COMPARE_COMPARE_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runner/json.hpp"

namespace swl::perf {

struct Point {
  /// The gated metric (the point's items_per_second field) — a throughput
  /// for higher-is-better points, a cost (latency) for lower-is-better ones.
  double value = 0.0;
  bool lower_is_better = false;
  runner::Json raw;  // the full point object, for merge output
};

using PointMap = std::map<std::string, Point>;

/// The machine class an artifact was measured on.
struct HostClass {
  std::uint64_t cpus = 0;  // CPUs the process could run on (affinity mask)
  std::string cpu_model;
  friend bool operator==(const HostClass&, const HostClass&) = default;
};

struct Artifact {
  PointMap points;
  std::optional<HostClass> host_class;  // absent in artifacts older than the field
};

/// The points gated only within one host class: host_qd1, host_qd1_p99_ns,
/// host_mt, replay_ftl_sharded and replay_array.
[[nodiscard]] bool host_sensitive(const std::string& name);

/// True when both artifacts record a host class and the classes are equal.
[[nodiscard]] bool same_host_class(const Artifact& a, const Artifact& b);

/// Parses an artifact. `label` names the source in diagnostics (written to
/// `err`). std::nullopt on malformed input, including a malformed
/// host_class.
[[nodiscard]] std::optional<Artifact> parse_artifact(const std::string& json_text,
                                                     const std::string& label, std::ostream& err);

/// parse_artifact over a file.
[[nodiscard]] std::optional<Artifact> load_artifact(const std::string& path, std::ostream& err);

/// True when metric value `a` beats `b` in the point's direction.
[[nodiscard]] bool better(const Point& point, double a, double b);

/// The merge rule behind --merge and --update-baseline: the result takes the
/// last input's `calibrate` and host class. Each other point is the best
/// across the inputs (direction-aware) after rescaling every input's values
/// to that calibrate, the same normalization the gate applies: a throughput
/// is scaled by last / own calibrate, a cost by own / last. The kept point
/// is written with its rescaled items_per_second. An input without a
/// positive calibrate, or any input when the last has none, is taken
/// unscaled. Host-sensitive points come only from inputs of the last input's
/// class; a classless last input yields a classless result without them.
[[nodiscard]] Artifact merge_artifacts(const std::vector<Artifact>& inputs);

/// The gate quantity: >= 1.0 means the current run is at least as good as
/// the baseline after normalizing machine speed (speed = current calibrate /
/// baseline calibrate). Direction comes from the baseline point.
[[nodiscard]] double normalized_ratio(const Point& base, const Point& current, double speed);

/// Extracts the calibrate-based speed factor from two maps; std::nullopt
/// (with a diagnostic on `err`) when either side lacks a positive calibrate.
[[nodiscard]] std::optional<double> speed_factor(const PointMap& baseline,
                                                 const PointMap& current, std::ostream& err);

/// The compare-mode verdict table. Returns the process exit code: 0 ok,
/// 1 regression (or a baseline point missing from current), 2 bad input.
/// Host-sensitive points of a baseline from another host class are printed
/// as skipped, not gated.
[[nodiscard]] int compare(const Artifact& baseline, const Artifact& current, double threshold,
                          std::ostream& out, std::ostream& err);

/// The --ratchet check: every benchmark of the old baseline must survive in
/// the candidate at `ratio >= 1 - threshold`, except host-sensitive points
/// when the two host classes differ. Diagnostics go to `out`.
[[nodiscard]] bool ratchet_allows(const Artifact& old_baseline, const Artifact& candidate,
                                  double threshold, std::ostream& out, std::ostream& err);

/// Serializes a merged artifact document ({bench, merged_from, host_class
/// when known, points}).
[[nodiscard]] runner::Json merged_artifact(Artifact artifact, std::size_t input_count);

}  // namespace swl::perf

#endif  // SWL_TOOLS_PERF_COMPARE_COMPARE_HPP
