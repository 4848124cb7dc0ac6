#include "perf_compare/compare.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

namespace swl::perf {

namespace {

std::string fmt_value(const Point& p) {
  std::ostringstream os;
  os.precision(3);
  if (p.lower_is_better) {
    os << std::fixed << p.value << "ns";  // cost metrics are reported raw
  } else {
    os << std::fixed << p.value / 1e6 << "M/s";
  }
  return os.str();
}

std::string describe(const std::optional<HostClass>& host) {
  if (!host.has_value()) return "none recorded";
  return std::to_string(host->cpus) + " CPUs, " + host->cpu_model;
}

/// The artifact's calibrate value; 0 when it has no positive one.
double calibrate_of(const PointMap& points) {
  const auto it = points.find("calibrate");
  return it != points.end() && it->second.value > 0.0 ? it->second.value : 0.0;
}

}  // namespace

bool host_sensitive(const std::string& name) {
  static constexpr std::array<std::string_view, 5> kNames = {
      "host_qd1", "host_qd1_p99_ns", "host_mt", "replay_ftl_sharded", "replay_array"};
  return std::ranges::find(kNames, name) != kNames.end();
}

bool same_host_class(const Artifact& a, const Artifact& b) {
  return a.host_class.has_value() && a.host_class == b.host_class;
}

std::optional<Artifact> parse_artifact(const std::string& json_text, const std::string& label,
                                       std::ostream& err) {
  const std::optional<runner::Json> doc = runner::Json::parse(json_text);
  if (!doc.has_value()) {
    err << "perf_compare: " << label << " is not valid JSON\n";
    return std::nullopt;
  }
  const runner::Json* points = doc->find("points");
  if (points == nullptr || !points->is_array()) {
    err << "perf_compare: " << label << " has no points array\n";
    return std::nullopt;
  }
  Artifact out;
  for (std::size_t i = 0; i < points->size(); ++i) {
    const runner::Json& p = *points->at(i);
    const runner::Json* name = p.find("name");
    const runner::Json* ips = p.find("items_per_second");
    if (name == nullptr || name->string() == nullptr || ips == nullptr ||
        !ips->number().has_value()) {
      err << "perf_compare: " << label << " point " << i << " lacks name/items_per_second\n";
      return std::nullopt;
    }
    Point pt;
    pt.value = *ips->number();
    if (const runner::Json* lib = p.find("lower_is_better");
        lib != nullptr && lib->boolean().has_value()) {
      pt.lower_is_better = *lib->boolean();
    }
    pt.raw = p;
    out.points[*name->string()] = std::move(pt);
  }
  if (const runner::Json* host = doc->find("host_class"); host != nullptr) {
    const runner::Json* cpus = host->find("cpus");
    const runner::Json* model = host->find("cpu_model");
    if (cpus == nullptr || !cpus->number().has_value() || *cpus->number() < 1.0 ||
        model == nullptr || model->string() == nullptr) {
      err << "perf_compare: " << label << " has a malformed host_class\n";
      return std::nullopt;
    }
    out.host_class = HostClass{static_cast<std::uint64_t>(*cpus->number()), *model->string()};
  }
  return out;
}

std::optional<Artifact> load_artifact(const std::string& path, std::ostream& err) {
  std::ifstream in(path);
  if (!in) {
    err << "perf_compare: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_artifact(buf.str(), path, err);
}

bool better(const Point& point, double a, double b) {
  return point.lower_is_better ? a < b : a > b;
}

Artifact merge_artifacts(const std::vector<Artifact>& inputs) {
  Artifact merged;
  if (inputs.empty()) return merged;
  const Artifact& last = inputs.back();
  merged.host_class = last.host_class;
  const double target = calibrate_of(last.points);
  if (target > 0.0) merged.points["calibrate"] = last.points.at("calibrate");
  for (const Artifact& in : inputs) {
    const bool same_class = same_host_class(in, last);
    const double own = calibrate_of(in.points);
    // How much faster this input's machine ran than the last input's.
    const double speed = own > 0.0 && target > 0.0 ? own / target : 1.0;
    for (const auto& [name, pt] : in.points) {
      if (name == "calibrate" || (!same_class && host_sensitive(name))) continue;
      Point scaled = pt;
      if (speed != 1.0) {
        scaled.value = pt.lower_is_better ? pt.value * speed : pt.value / speed;
        if (runner::Json* ips = scaled.raw.find("items_per_second"); ips != nullptr) {
          *ips = scaled.value;
        }
      }
      const auto it = merged.points.find(name);
      if (it == merged.points.end() || better(scaled, scaled.value, it->second.value)) {
        merged.points[name] = std::move(scaled);
      }
    }
  }
  return merged;
}

double normalized_ratio(const Point& base, const Point& current, double speed) {
  if (base.lower_is_better) {
    // A faster machine lowers a cost metric for free, so normalization
    // scales the current cost *up* by the speed factor; the ratio then reads
    // "how much of the baseline's (normalized) cost budget do we use".
    const double normalized = current.value * speed;
    return normalized > 0.0 ? base.value / normalized : 0.0;
  }
  return base.value > 0.0 ? (current.value / speed) / base.value : 0.0;
}

std::optional<double> speed_factor(const PointMap& baseline, const PointMap& current,
                                   std::ostream& err) {
  const double base_cal = calibrate_of(baseline);
  const double cur_cal = calibrate_of(current);
  if (base_cal <= 0.0 || cur_cal <= 0.0) {
    err << "perf_compare: both sides need a positive `calibrate` point\n";
    return std::nullopt;
  }
  return cur_cal / base_cal;
}

int compare(const Artifact& baseline_artifact, const Artifact& current_artifact,
            double threshold, std::ostream& out, std::ostream& err) {
  const PointMap& baseline = baseline_artifact.points;
  const PointMap& current = current_artifact.points;
  const std::optional<double> speed = speed_factor(baseline, current, err);
  if (!speed.has_value()) return 2;
  out << "machine speed vs baseline host: " << fmt_value(current.at("calibrate")) << " / "
      << fmt_value(baseline.at("calibrate")) << " = ";
  out.precision(3);
  out << std::fixed << *speed << "x\n";
  const bool same_class = same_host_class(baseline_artifact, current_artifact);
  out << "host class: baseline " << describe(baseline_artifact.host_class) << "; current "
      << describe(current_artifact.host_class)
      << (same_class ? "" : " (different: host-sensitive points are not gated)") << "\n\n";

  bool failed = false;
  out << "  benchmark                 baseline      current   normalized  verdict\n";
  for (const auto& [name, base] : baseline) {
    if (name == "calibrate") continue;
    if (!same_class && host_sensitive(name)) {
      out << "  " << name << ": skipped (host class differs)\n";
      continue;
    }
    const auto it = current.find(name);
    if (it == current.end()) {
      out << "  " << name << ": MISSING from current run\n";
      failed = true;
      continue;
    }
    const double ratio = normalized_ratio(base, it->second, *speed);
    const bool regressed = ratio < 1.0 - threshold;
    failed = failed || regressed;
    out << "  ";
    out.width(22);
    out << std::left << name << std::right;
    out.width(13);
    out << fmt_value(base);
    out.width(13);
    out << fmt_value(it->second);
    out.width(12);
    out.precision(3);
    out << std::fixed << ratio;
    out << (regressed ? "  REGRESSED" : "  ok") << (base.lower_is_better ? "  [lower-is-better]" : "")
        << "\n";
  }
  for (const auto& [name, pt] : current) {
    if (baseline.find(name) == baseline.end()) {
      out << "  " << name << ": new benchmark (" << fmt_value(pt) << "), not gated\n";
    }
  }

  out << "\nperf gate: "
      << (failed ? "FAIL (normalized metric regressed beyond " : "ok (threshold ")
      << threshold * 100.0 << "%)\n";
  return failed ? 1 : 0;
}

bool ratchet_allows(const Artifact& old_artifact, const Artifact& candidate_artifact,
                    double threshold, std::ostream& out, std::ostream& err) {
  const PointMap& old_baseline = old_artifact.points;
  const PointMap& candidate = candidate_artifact.points;
  const std::optional<double> speed = speed_factor(old_baseline, candidate, err);
  if (!speed.has_value()) return false;
  const bool same_class = same_host_class(old_artifact, candidate_artifact);
  bool ok = true;
  for (const auto& [name, base] : old_baseline) {
    if (name == "calibrate") continue;
    if (!same_class && host_sensitive(name)) {
      out << "  ratchet: " << name << " skipped (host class differs)\n";
      continue;
    }
    const auto it = candidate.find(name);
    if (it == candidate.end()) {
      out << "  ratchet: " << name << " MISSING from new baseline\n";
      ok = false;
      continue;
    }
    const double ratio = normalized_ratio(base, it->second, *speed);
    if (ratio < 1.0 - threshold) {
      out << "  ratchet: " << name << " would regress to ";
      out.precision(3);
      out << std::fixed << ratio << "x normalized (" << fmt_value(base) << " -> "
          << fmt_value(it->second) << ")\n";
      ok = false;
    }
  }
  return ok;
}

runner::Json merged_artifact(Artifact artifact, std::size_t input_count) {
  runner::Json doc = runner::Json::object();
  doc.set("bench", "micro");
  doc.set("merged_from", static_cast<std::uint64_t>(input_count));
  if (artifact.host_class.has_value()) {
    runner::Json host = runner::Json::object();
    host.set("cpus", artifact.host_class->cpus);
    host.set("cpu_model", artifact.host_class->cpu_model);
    doc.set("host_class", std::move(host));
  }
  runner::Json arr = runner::Json::array();
  for (auto& [name, pt] : artifact.points) arr.push(std::move(pt.raw));
  doc.set("points", std::move(arr));
  return doc;
}

}  // namespace swl::perf
