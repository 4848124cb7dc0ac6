// Synthetic "mobile PC" workload — the substitution for the paper's trace.
//
// The paper's trace (Section 5.1): one month of daily activity (web surfing,
// email, movie download/playback, games, document editing) on a 20 GB NTFS
// disk; 36.62% of LBAs written at least once; 1.82 writes/s and 1.97 reads/s
// on average; hot data "often written in burst".
//
// The generator reproduces the four properties the SWL mechanism is
// sensitive to:
//   1. hot/cold skew    — a small hot pool takes most single-page updates
//                         (file-system metadata, application state);
//   2. LBA coverage     — a configurable fraction of the space is ever
//                         written, the rest stays cold forever;
//   3. burstiness       — sequential multi-page runs with millisecond
//                         spacing (downloads, file copies) dominate the
//                         written volume, making the average per-block live
//                         copy count small under FTL (the paper's Fig. 7(a)
//                         explanation);
//   4. aggregate rates  — mean write/read ops per second match the trace, so
//                         erase counts translate to years the same way.
#ifndef SWL_TRACE_SYNTHETIC_HPP
#define SWL_TRACE_SYNTHETIC_HPP

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "trace/trace.hpp"

namespace swl::trace {

struct SyntheticConfig {
  /// Size of the logical space the trace addresses.
  Lba lba_count = 0;
  /// Trace length in seconds (the paper's trace covers one month).
  double duration_s = 30.0 * 24 * 3600;
  /// Mean write / read operations per second (paper: 1.82 / 1.97).
  double writes_per_second = 1.82;
  double reads_per_second = 1.97;
  /// Fraction of the LBA space that is ever written (paper: 0.3662).
  double write_coverage = 0.3662;
  /// Fraction of the *written* space that is hot (frequently updated).
  double hot_fraction = 0.125;
  /// Fraction of write operations that are single-page hot updates; the rest
  /// arrive as sequential bursts over the warm region (plus one-shot cold
  /// fills early in the trace).
  double hot_write_ratio = 0.55;
  /// Zipf skew of the hot-update popularity distribution.
  double hot_zipf_skew = 0.9;
  /// Sequential burst length bounds (pages).
  std::uint32_t burst_min_pages = 16;
  std::uint32_t burst_max_pages = 256;
  /// Spacing between pages of one burst (milliseconds).
  double burst_page_gap_ms = 2.0;
  /// Fraction of non-hot writes that are one-shot cold fills.
  double cold_fill_ratio = 0.08;
  /// File-system scattering: the generator's contiguous hot/warm/cold
  /// regions are mapped through a seeded random permutation of
  /// `scatter_chunk_pages`-sized chunks, so data of every temperature is
  /// spread across the whole LBA space (as a real file system lays out
  /// files) while runs inside a chunk stay sequential. 0 disables
  /// scattering (regions stay contiguous). 16 pages = 32 KiB fragments.
  std::uint32_t scatter_chunk_pages = 16;
  std::uint64_t seed = 0x7aceULL;
};

/// Named workload families. `desktop` is the paper-calibrated mobile-PC mix
/// (the default SyntheticConfig); the others stress different corners of the
/// wear-leveling design space.
enum class WorkloadPreset {
  /// The paper's trace statistics: 1.82 w/s, 1.97 r/s, 36.62% coverage,
  /// strong hot/cold skew, bursty sequential runs.
  desktop,
  /// Server-ish: order-of-magnitude higher rates, flatter skew, small
  /// transfers, wide coverage.
  server,
  /// Media archive: almost everything is large sequential one-shot writes.
  sequential_fill,
  /// Uniform random updates over nearly the whole space (the workload where
  /// static wear leveling has the least to add).
  uniform_random,
};

[[nodiscard]] std::string_view to_string(WorkloadPreset p) noexcept;

/// A config for `preset` over `lba_count` logical pages.
[[nodiscard]] SyntheticConfig preset_config(WorkloadPreset preset, Lba lba_count);

/// Generates the whole trace in memory. Record count ≈ duration *
/// (writes_per_second + reads_per_second); scale duration accordingly.
[[nodiscard]] Trace generate_synthetic_trace(const SyntheticConfig& config);

/// Streaming variant for long traces: produces the identical record stream
/// without materializing it.
class SyntheticTraceSource final : public TraceSource {
 public:
  explicit SyntheticTraceSource(const SyntheticConfig& config);

  std::optional<TraceRecord> next() override;
  std::size_t next_batch(TraceRecord* out, std::size_t n) override;

  [[nodiscard]] const SyntheticConfig& config() const noexcept { return config_; }

  /// Maps a region-space address to its scattered LBA (identity when
  /// scattering is disabled, and on the tail past the last whole chunk).
  [[nodiscard]] Lba scatter(Lba region_lba) const {
    if (chunk_map_.empty()) return region_lba;
    const Lba chunk_pages = config_.scatter_chunk_pages;
    return chunk_map_[region_lba / chunk_pages] * chunk_pages + region_lba % chunk_pages;
  }

 private:
  /// Emits the next record into `out`; false at end of trace. Shared by
  /// next() and next_batch() so both yield the identical stream.
  [[nodiscard]] bool produce(TraceRecord& out);
  void start_write_burst();
  [[nodiscard]] Lba pick_hot_lba();
  [[nodiscard]] Lba pick_read_lba();

  SyntheticConfig config_;
  Rng rng_;
  ZipfSampler hot_sampler_;
  double now_s_ = 0.0;
  double next_write_s_ = 0.0;
  double next_read_s_ = 0.0;
  // Region boundaries (see .cpp): [0, hot_end_) hot, [hot_end_, warm_end_)
  // warm/sequential, [warm_end_, cold_end_) cold fills, rest never written.
  Lba hot_end_ = 0;
  Lba warm_end_ = 0;
  Lba cold_end_ = 0;
  // In-flight sequential burst.
  Lba burst_next_ = 0;
  std::uint32_t burst_remaining_ = 0;
  // Cold-fill cursor (one-shot writes walk the cold region once).
  Lba cold_cursor_ = 0;
  // Mean gap between write events (a hot update or a whole burst).
  double write_event_gap_mean_s_ = 1.0;
  // hot_event_probability(config_), computed once (it is pure in config_).
  double hot_event_p_ = 0.0;
  // File-system scattering: chunk_map_[c] is where region chunk c lands, a
  // seeded RandomPermutation of the whole chunks tabulated once, plus the
  // identity for a partial tail chunk. Empty when scattering is off.
  std::vector<Lba> chunk_map_;
};

}  // namespace swl::trace

#endif  // SWL_TRACE_SYNTHETIC_HPP
