// endurance_* workloads: first-failure replays (the paper's Figure 5 runs).
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dftl/dftl.hpp"
#include "sim/experiments.hpp"
#include "swl/leveler.hpp"
#include "timed_leveler.hpp"
#include "trace/segment_replay.hpp"
#include "workloads.hpp"

namespace swl::e2e {
namespace {

/// Stamps every next_batch call of the replay source. The gap between two
/// calls is the wall time the simulator took for one batch of records
/// (fetching it plus replaying it): the unit of work whose latency the
/// endurance workloads report. One clock read per 4096-record batch.
class BatchClock final : public trace::TraceSource {
 public:
  explicit BatchClock(trace::TraceSource& inner) : inner_(inner) {}

  std::optional<trace::TraceRecord> next() override { return inner_.next(); }

  std::size_t next_batch(trace::TraceRecord* out, std::size_t n) override {
    const auto now = Clock::now();
    if (started_) {
      gaps_us_.push_back(std::chrono::duration<double, std::micro>(now - last_).count());
    }
    started_ = true;
    last_ = now;
    return inner_.next_batch(out, n);
  }

  [[nodiscard]] std::vector<double>& gaps_us() noexcept { return gaps_us_; }

 private:
  trace::TraceSource& inner_;
  std::vector<double> gaps_us_;
  Clock::time_point last_{};
  bool started_ = false;
};

/// FNV-1a over 64-bit words: the fingerprint of an episode's final simulated
/// state, which every other episode of the run — traced ones included —
/// must reproduce bit for bit.
class Fingerprint {
 public:
  void add(std::uint64_t word) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t value) {
  std::array<char, 19> buf{};
  std::snprintf(buf.data(), buf.size(), "0x%016llx", static_cast<unsigned long long>(value));
  return buf.data();
}

struct Episode {
  bool traced = false;
  double setup_s = 0.0;
  /// Simulator::run wall time: trace source plus replay, setup excluded.
  double replay_s = 0.0;
  double batch_p50_us = 0.0;
  sim::SimResult result;
  std::uint64_t fingerprint = 0;
  SwlTimes swl;                   // traced episodes only
  std::optional<dftl::DftlStats> dftl;
};

/// The base trace belongs to the workload's definition, like the paper's
/// one collected trace, so it comes from a fixed seed; --seed draws the
/// sequence of segments replayed from it.
constexpr std::uint64_t kBaseTraceSeed = 42;

sim::ExperimentScale scale_of(const EnduranceSpec& spec, const RunOptions& opt) {
  sim::ExperimentScale scale;
  scale.block_count = spec.blocks;
  scale.endurance = opt.smoke ? std::max<std::uint32_t>(spec.endurance / 100, 10) : spec.endurance;
  scale.base_trace_days = spec.trace_days;
  scale.seed = kBaseTraceSeed;
  return scale;
}

trace::SegmentReplaySource make_source(const trace::Trace& base, const sim::ExperimentScale& scale,
                                       std::uint64_t seed) {
  // At seed 42 this is the segment stream sim::run_config_on replays.
  return trace::SegmentReplaySource(base, scale.segment_minutes * 60.0, seed ^ 0x1234);
}

std::uint64_t fingerprint_of(const sim::SimResult& r) {
  Fingerprint fp;
  fp.add(r.records_processed);
  for (const std::uint32_t count : r.erase_counts) fp.add(count);
  const tl::TlCounters& tl = r.counters;
  const nand::NandCounters& chip = r.chip_counters;
  const wear::LevelerStats& s = r.leveler_stats;
  for (const std::uint64_t v :
       {tl.host_writes, tl.host_reads, tl.gc_erases, tl.swl_erases, tl.gc_live_copies,
        tl.swl_live_copies, tl.fast_path_writes, tl.map_reads, tl.map_writes, chip.reads,
        chip.programs, chip.erases, chip.program_failures, chip.erase_failures,
        chip.payload_arena_allocations, s.collections_requested, s.bet_resets, s.activations,
        s.stalls}) {
    fp.add(v);
  }
  fp.add(std::bit_cast<std::uint64_t>(r.first_failure_years.value_or(-1.0)));
  return fp.value();
}

/// The payload token every LBA must hold after `records` replayed records:
/// the simulator numbers host writes 1, 2, 3, ... in replay order, so
/// pulling the same records from an identical source and keeping the last
/// write number per LBA gives the expected content (0 = never written).
std::vector<std::uint64_t> expected_tokens(const trace::Trace& base,
                                           const sim::ExperimentScale& scale, std::uint64_t seed,
                                           Lba lba_count, std::uint64_t records) {
  std::vector<std::uint64_t> expected(lba_count, 0);
  trace::SegmentReplaySource source = make_source(base, scale, seed);
  std::vector<trace::TraceRecord> batch(4096);
  std::uint64_t token = 0;
  while (records > 0) {
    const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(batch.size(), records));
    const std::size_t got = source.next_batch(batch.data(), want);
    for (std::size_t i = 0; i < got; ++i) {
      if (batch[i].op == trace::Op::write) expected[batch[i].lba % lba_count] = ++token;
    }
    records -= got;
  }
  return expected;
}

/// Post-run checks: layer invariants, then a read of every LBA. Any status
/// but ok / lba_not_mapped fails; with `expected`, so does wrong content.
void check_device(sim::Simulator& sim, const std::vector<std::uint64_t>* expected, Outcome& out) {
  try {
    sim.layer().check_invariants();
  } catch (const std::exception& e) {
    out.fail(std::string("check_invariants: ") + e.what());
  }
  tl::TranslationLayer& layer = sim.layer();
  for (Lba lba = 0; lba < layer.lba_count(); ++lba) {
    std::uint64_t token = 0;
    const Status st = layer.read(lba, &token);
    ++out.attempted;
    bool good = st == Status::ok || st == Status::lba_not_mapped;
    if (good && expected != nullptr) good = (st == Status::ok ? token : 0) == (*expected)[lba];
    if (!good) ++out.failed;
  }
}

Episode run_episode(const sim::ExperimentScale& scale, sim::LayerKind layer, std::uint64_t seed,
                    bool traced, bool verify_content, Outcome& out) {
  Episode ep;
  ep.traced = traced;
  const auto setup_start = Clock::now();
  const trace::Trace base = sim::make_base_trace(scale, layer);
  const auto sim = sim::make_simulator(sim::make_sim_config(scale, layer, std::nullopt));
  wear::LevelerConfig lc;  // k = 0, cyclic scan
  lc.threshold = sim::scaled_threshold(100.0, scale);
  auto leveler = std::make_unique<wear::SwLeveler>(scale.block_count, lc);
  const TimedLeveler* timed = nullptr;
  if (traced) {
    auto wrapper = std::make_unique<TimedLeveler>(std::move(leveler));
    timed = wrapper.get();
    sim->layer().attach_leveler(std::move(wrapper));
  } else {
    sim->layer().attach_leveler(std::move(leveler));
  }
  trace::SegmentReplaySource source = make_source(base, scale, seed);
  BatchClock clock(source);
  ep.setup_s = seconds_since(setup_start);

  const std::uint64_t replayed = sim->run(clock, scale.max_years, /*stop_on_first_failure=*/true);
  ep.result = sim->result();
  ep.replay_s = ep.result.perf.source_seconds + ep.result.perf.replay_seconds;
  ep.batch_p50_us = quantile(clock.gaps_us(), 0.50);
  ep.fingerprint = fingerprint_of(ep.result);
  if (timed != nullptr) ep.swl = timed->times();
  if (const auto* d = dynamic_cast<const dftl::Dftl*>(&sim->layer()); d != nullptr) {
    ep.dftl = d->stats();
  }

  out.attempted += replayed;
  if (!ep.result.first_failure_years.has_value()) {
    ++out.failed;
    out.fail("run stopped before the first block failure");
  }
  // Reads advance the simulated clock and the counters, so they come after
  // result() and the fingerprint.
  if (verify_content) {
    const std::vector<std::uint64_t> expected =
        expected_tokens(base, scale, seed, sim->lba_count(), ep.result.records_processed);
    check_device(*sim, &expected, out);
  } else {
    check_device(*sim, nullptr, out);
  }
  return ep;
}

void set_end_to_end(Outcome& out, const std::vector<Episode>& eps, std::uint32_t endurance) {
  Series series;
  for (const Episode& ep : eps) {
    series.add("setup_s", ep.setup_s);
    if (ep.traced) continue;
    series.add("ops_per_s", static_cast<double>(ep.result.records_processed) / ep.replay_s);
    series.add("p50_us", ep.batch_p50_us);
  }
  series.set_medians(out);
  out.set("ops_per_s", series.max_of("ops_per_s"));
  out.set("p50_us", series.min_of("p50_us"));
  const sim::SimResult& r = eps.front().result;
  const auto writes = static_cast<double>(r.counters.host_writes);
  out.set("write_amp", ratio(static_cast<double>(r.chip_counters.programs), writes));
  // Host page writes the device absorbs until its most-worn block reaches
  // the endurance limit: exactly the writes replayed, since the run ends at
  // the first failure (the same formula projects host_mixed's lifetime).
  out.set("lifetime_mwrites",
          ratio(static_cast<double>(endurance) * writes / 1e6, r.erase_summary.max));
}

void set_per_layer(Outcome& out, const std::vector<Episode>& eps, const NandTiming& timing) {
  std::uint64_t records = 0;
  double trace_s = 0.0;
  double replay_s = 0.0;
  SwlTimes swl;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  for (const Episode& ep : eps) {
    (ep.traced ? traced_s : plain_s).push_back(ep.replay_s);
    if (!ep.traced) continue;
    records += ep.result.records_processed;
    trace_s += ep.result.perf.source_seconds;
    replay_s += ep.replay_s;
    swl.merge(ep.swl);
  }
  const auto n = static_cast<double>(records);
  const double swl_s = static_cast<double>(swl.wall_ns()) / 1e9;
  // Replay wall time = trace + swl + sim, by construction: sim is the rest
  // (the record loop, the layer's host path and its GC).
  out.set("trace.ns_per_rec", ratio(trace_s * 1e9, n));
  out.set("sim.ns_per_rec", ratio((replay_s - trace_s - swl_s) * 1e9, n));
  set_swl_times(out, swl, replay_s * 1e9);

  const sim::SimResult& r = eps.front().result;
  out.set("trace.batch_fill", r.perf.batch_fill_ratio());
  out.set("sim.lifetime_years", r.first_failure_years.value_or(0.0));
  set_device_metrics(out, r.counters, r.chip_counters, timing);
  set_swl_stats(out, r.leveler_stats);
  out.set("swl.erase_cv", ratio(r.erase_summary.stddev, r.erase_summary.mean));
  if (const auto& d = eps.front().dftl; d.has_value()) {
    const auto writes = static_cast<double>(r.counters.host_writes);
    const auto per_kwrite = [writes](std::uint64_t v) {
      return ratio(1000.0 * static_cast<double>(v), writes);
    };
    out.set("dftl.cmt_hit_frac", ratio(static_cast<double>(d->cmt_hits),
                                       static_cast<double>(d->cmt_hits + d->cmt_misses)));
    out.set("dftl.fetches_per_kwrite", per_kwrite(d->fetches));
    out.set("dftl.writebacks_per_kwrite", per_kwrite(d->writebacks));
    out.set("dftl.batched_writebacks_per_kwrite", per_kwrite(d->batched_writebacks));
    out.set("dftl.gc_rmw_per_kwrite", per_kwrite(d->gc_rmw_writes));
  }
  out.set("bench.episodes", static_cast<double>(eps.size()));
  out.set("bench.replay_s", median(plain_s));
  out.set("bench.traced_replay_s", median(traced_s));
  out.set("bench.trace_overhead_frac", ratio(median(traced_s), median(plain_s)) - 1.0);
}

}  // namespace

Outcome run_endurance(const EnduranceSpec& spec, const RunOptions& opt) {
  Outcome out;
  const sim::ExperimentScale scale = scale_of(spec, opt);
  // A traced run alternates plain and traced episodes, so the tracing
  // overhead is measured under the same conditions as the layer split.
  const std::size_t min_episodes = opt.traced ? 2 : 1;
  std::vector<Episode> eps;
  const auto start = Clock::now();
  try {
    while (true) {
      const bool traced = opt.traced && eps.size() % 2 == 1;
      const auto episode_start = Clock::now();
      eps.push_back(
          run_episode(scale, spec.layer, opt.seed, traced, /*verify_content=*/eps.empty(), out));
      const double episode_s = seconds_since(episode_start);
      if (eps.size() < min_episodes) continue;
      if (opt.smoke || seconds_since(start) + episode_s > opt.seconds) break;
    }
  } catch (const std::exception& e) {
    out.fail(std::string("episode threw: ") + e.what());
    ++out.failed;
    return out;
  }

  // Every episode replays the same inputs, so all of them — plain and
  // traced alike — must end in the identical simulated state.
  for (std::size_t i = 1; i < eps.size(); ++i) {
    if (eps[i].fingerprint != eps[0].fingerprint) {
      out.fail("episode " + std::to_string(i) + (eps[i].traced ? " (traced)" : "") +
               " fingerprint " + hex(eps[i].fingerprint) + " != " + hex(eps[0].fingerprint));
    }
  }
  out.fingerprint = hex(eps[0].fingerprint);
  set_end_to_end(out, eps, scale.endurance);
  set_per_layer(out, eps, sim::make_sim_config(scale, spec.layer, std::nullopt).timing);
  return out;
}

}  // namespace swl::e2e
