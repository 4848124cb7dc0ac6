#include "trace/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "core/permutation.hpp"

namespace swl::trace {

namespace {

double mean_burst_pages(const SyntheticConfig& c) {
  return (static_cast<double>(c.burst_min_pages) + static_cast<double>(c.burst_max_pages)) / 2.0;
}

/// Probability that a write *event* is a hot single-page update, such that
/// the fraction of write *operations* that are hot equals hot_write_ratio.
double hot_event_probability(const SyntheticConfig& c) {
  const double p = c.hot_write_ratio;
  const double l = mean_burst_pages(c);
  return p * l / ((1.0 - p) + p * l);
}

/// Fraction of the written space that is cold one-shot data; the remainder
/// (after the hot pool) is the warm region rewritten by sequential bursts.
constexpr double kColdSpaceFraction = 0.5;

}  // namespace

SyntheticTraceSource::SyntheticTraceSource(const SyntheticConfig& config)
    : config_(config),
      rng_(config.seed),
      hot_sampler_(
          std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(config.write_coverage * config.hot_fraction *
                                            static_cast<double>(config.lba_count))),
          config.hot_zipf_skew) {
  SWL_REQUIRE(config_.lba_count >= 16, "trace needs a non-trivial LBA space");
  SWL_REQUIRE(config_.duration_s > 0.0, "trace duration must be positive");
  SWL_REQUIRE(config_.writes_per_second > 0.0 && config_.reads_per_second >= 0.0,
              "invalid op rates");
  SWL_REQUIRE(config_.write_coverage > 0.0 && config_.write_coverage <= 1.0,
              "write_coverage out of range");
  SWL_REQUIRE(config_.hot_fraction > 0.0 && config_.hot_fraction < 1.0,
              "hot_fraction out of range");
  SWL_REQUIRE(config_.hot_write_ratio > 0.0 && config_.hot_write_ratio < 1.0,
              "hot_write_ratio out of range");
  SWL_REQUIRE(config_.burst_min_pages >= 1 && config_.burst_min_pages <= config_.burst_max_pages,
              "invalid burst length bounds");

  const auto written = static_cast<Lba>(config_.write_coverage *
                                        static_cast<double>(config_.lba_count));
  hot_end_ = static_cast<Lba>(hot_sampler_.size());
  const auto cold_size = static_cast<Lba>(kColdSpaceFraction * static_cast<double>(written));
  warm_end_ = std::max<Lba>(hot_end_ + 1, written > cold_size ? written - cold_size : hot_end_ + 1);
  cold_end_ = std::max<Lba>(warm_end_ + 1, written);
  cold_end_ = std::min<Lba>(cold_end_, config_.lba_count);
  warm_end_ = std::min<Lba>(warm_end_, cold_end_ - 1);
  cold_cursor_ = warm_end_;
  SWL_ASSERT(hot_end_ < warm_end_ && warm_end_ < cold_end_ && cold_end_ <= config_.lba_count,
             "degenerate region layout — LBA space too small for the coverage settings");

  if (config_.scatter_chunk_pages > 0) {
    const Lba chunk_pages = config_.scatter_chunk_pages;
    const Lba chunks = config_.lba_count / chunk_pages;
    if (chunks >= 2) {
      const RandomPermutation perm(chunks, config_.seed ^ 0x5ca77e2ULL);
      chunk_map_.resize((config_.lba_count + chunk_pages - 1) / chunk_pages);
      for (Lba c = 0; c < chunk_map_.size(); ++c) {
        chunk_map_[c] = c < chunks ? static_cast<Lba>(perm.forward(c)) : c;
      }
    }
  }

  hot_event_p_ = hot_event_probability(config_);
  const double hot_event_p = hot_event_p_;
  const double mean_ops_per_event =
      hot_event_p + (1.0 - hot_event_p) * mean_burst_pages(config_);
  write_event_gap_mean_s_ = mean_ops_per_event / config_.writes_per_second;
  next_write_s_ = rng_.exponential(write_event_gap_mean_s_);
  next_read_s_ = config_.reads_per_second > 0.0
                     ? rng_.exponential(1.0 / config_.reads_per_second)
                     : config_.duration_s + 1.0;
}

Lba SyntheticTraceSource::pick_hot_lba() {
  return static_cast<Lba>(hot_sampler_.sample(rng_));
}

Lba SyntheticTraceSource::pick_read_lba() {
  // Reads favor hot data but also touch everything ever written.
  if (rng_.chance(0.5)) return pick_hot_lba();
  return static_cast<Lba>(rng_.below(cold_end_));
}

void SyntheticTraceSource::start_write_burst() {
  const std::uint32_t len = static_cast<std::uint32_t>(
      rng_.range(config_.burst_min_pages, config_.burst_max_pages));
  if (cold_cursor_ < cold_end_ && rng_.chance(config_.cold_fill_ratio)) {
    // One-shot cold fill: walk the cold region exactly once.
    burst_next_ = cold_cursor_;
    burst_remaining_ = std::min<std::uint32_t>(len, cold_end_ - cold_cursor_);
    cold_cursor_ += burst_remaining_;
  } else {
    // Sequential run somewhere in the warm region (download, file copy).
    const Lba span = warm_end_ - hot_end_;
    const std::uint32_t run = std::min<std::uint32_t>(len, span);
    burst_next_ = hot_end_ + static_cast<Lba>(rng_.below(span - run + 1));
    burst_remaining_ = run;
  }
}

bool SyntheticTraceSource::produce(TraceRecord& out) {
  while (true) {
    // Candidate event times: the in-flight burst page, the next write event
    // (only when no burst is active) and the next read.
    const double write_t = next_write_s_;
    const double read_t = next_read_s_;
    const bool burst_active = burst_remaining_ > 0;

    if (write_t <= read_t) {
      if (write_t > config_.duration_s) return false;
      now_s_ = write_t;
      if (burst_active) {
        out = TraceRecord{seconds_to_us(now_s_), scatter(burst_next_++), Op::write};
        if (--burst_remaining_ == 0) {
          next_write_s_ = now_s_ + rng_.exponential(write_event_gap_mean_s_);
        } else {
          next_write_s_ = now_s_ + config_.burst_page_gap_ms / 1000.0;
        }
        return true;
      }
      if (rng_.chance(hot_event_p_)) {
        out = TraceRecord{seconds_to_us(now_s_), scatter(pick_hot_lba()), Op::write};
        next_write_s_ = now_s_ + rng_.exponential(write_event_gap_mean_s_);
        return true;
      }
      start_write_burst();
      continue;  // the burst's first page is emitted on the next iteration
    }

    if (read_t > config_.duration_s) return false;
    now_s_ = read_t;
    out = TraceRecord{seconds_to_us(now_s_), scatter(pick_read_lba()), Op::read};
    next_read_s_ = now_s_ + rng_.exponential(1.0 / config_.reads_per_second);
    return true;
  }
}

std::optional<TraceRecord> SyntheticTraceSource::next() {
  TraceRecord rec;
  if (!produce(rec)) return std::nullopt;
  return rec;
}

std::size_t SyntheticTraceSource::next_batch(TraceRecord* out, std::size_t n) {
  std::size_t filled = 0;
  while (filled < n && produce(out[filled])) ++filled;
  return filled;
}

std::string_view to_string(WorkloadPreset p) noexcept {
  switch (p) {
    case WorkloadPreset::desktop:
      return "desktop";
    case WorkloadPreset::server:
      return "server";
    case WorkloadPreset::sequential_fill:
      return "sequential_fill";
    case WorkloadPreset::uniform_random:
      return "uniform_random";
  }
  return "unknown";
}

SyntheticConfig preset_config(WorkloadPreset preset, Lba lba_count) {
  SyntheticConfig c;
  c.lba_count = lba_count;
  switch (preset) {
    case WorkloadPreset::desktop:
      break;  // the paper-calibrated defaults
    case WorkloadPreset::server:
      c.writes_per_second = 40.0;
      c.reads_per_second = 90.0;
      c.write_coverage = 0.7;
      c.hot_fraction = 0.3;
      c.hot_write_ratio = 0.5;
      c.hot_zipf_skew = 0.6;
      c.burst_min_pages = 2;
      c.burst_max_pages = 32;
      c.cold_fill_ratio = 0.03;
      break;
    case WorkloadPreset::sequential_fill:
      c.writes_per_second = 20.0;
      c.reads_per_second = 5.0;
      c.write_coverage = 0.95;
      c.hot_fraction = 0.01;
      c.hot_write_ratio = 0.05;
      c.burst_min_pages = 128;
      c.burst_max_pages = 512;
      c.cold_fill_ratio = 0.5;
      break;
    case WorkloadPreset::uniform_random:
      c.writes_per_second = 10.0;
      c.reads_per_second = 10.0;
      c.write_coverage = 0.99;
      c.hot_fraction = 0.98;
      c.hot_write_ratio = 0.98;
      c.hot_zipf_skew = 0.0;  // uniform over the "hot" pool = almost everything
      c.burst_min_pages = 1;
      c.burst_max_pages = 4;
      c.cold_fill_ratio = 0.0;
      break;
  }
  return c;
}

Trace generate_synthetic_trace(const SyntheticConfig& config) {
  SyntheticTraceSource source(config);
  Trace trace;
  const double expected_ops =
      config.duration_s * (config.writes_per_second + config.reads_per_second);
  trace.reserve(static_cast<std::size_t>(expected_ops * 1.1));
  while (auto rec = source.next()) trace.push_back(*rec);
  return trace;
}

}  // namespace swl::trace
