// Timing wrappers around the wear-leveling layer's public interfaces, for
// traced runs only. A TimedLeveler owns the real policy and forwards every
// call unchanged, so an attached TimedLeveler(SwLeveler) behaves bit for bit
// like the bare SwLeveler (the run fingerprints prove it); it only adds two
// clock reads around SWL-Procedure and around each SWL-BETUpdate.
#ifndef SWL_BENCH_E2E_TIMED_LEVELER_HPP
#define SWL_BENCH_E2E_TIMED_LEVELER_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "metrics.hpp"
#include "swl/leveler_base.hpp"

namespace swl::e2e {

struct SwlTimes {
  std::uint64_t runs = 0;     ///< SWL-Procedure entries
  std::uint64_t run_ns = 0;   ///< wall time inside them, collections included
  std::uint64_t run_ns_max = 0;
  std::uint64_t collects = 0;  ///< Cleaner::collect_blocks calls
  std::uint64_t collect_ns = 0;
  std::uint64_t updates = 0;   ///< SWL-BETUpdate calls
  std::uint64_t update_ns = 0;
  /// The part of update_ns spent outside SWL-Procedure (erases by regular
  /// GC); updates inside it are already in run_ns.
  std::uint64_t update_ns_outside_run = 0;

  /// Wall time the leveler took, counting each nanosecond once.
  [[nodiscard]] std::uint64_t wall_ns() const noexcept { return run_ns + update_ns_outside_run; }

  void merge(const SwlTimes& o) noexcept {
    runs += o.runs;
    run_ns += o.run_ns;
    run_ns_max = std::max(run_ns_max, o.run_ns_max);
    collects += o.collects;
    collect_ns += o.collect_ns;
    updates += o.updates;
    update_ns += o.update_ns;
    update_ns_outside_run += o.update_ns_outside_run;
  }
};

/// Times the Cleaner requests SWL-Procedure issues.
class TimedCleaner final : public wear::Cleaner {
 public:
  TimedCleaner(wear::Cleaner& inner, SwlTimes& times) : inner_(inner), times_(times) {}

  void collect_blocks(BlockIndex first, BlockIndex count) override {
    const auto start = Clock::now();
    inner_.collect_blocks(first, count);
    times_.collect_ns += ns_since(start);
    ++times_.collects;
  }

 private:
  wear::Cleaner& inner_;
  SwlTimes& times_;
};

class TimedLeveler final : public wear::Leveler {
 public:
  explicit TimedLeveler(std::unique_ptr<wear::Leveler> inner) : inner_(std::move(inner)) {}

  void on_block_erased(BlockIndex block, std::uint32_t new_erase_count) override {
    const auto start = Clock::now();
    inner_->on_block_erased(block, new_erase_count);
    const std::uint64_t ns = ns_since(start);
    times_.update_ns += ns;
    if (!in_run_) times_.update_ns_outside_run += ns;
    ++times_.updates;
  }

  [[nodiscard]] bool needs_leveling() const override { return inner_->needs_leveling(); }

  void run(wear::Cleaner& cleaner) override {
    if (in_run_) {  // re-entrant call: the inner policy ignores it, and so does the timing
      inner_->run(cleaner);
      return;
    }
    TimedCleaner timed(cleaner, times_);
    in_run_ = true;
    const auto start = Clock::now();
    inner_->run(timed);
    const std::uint64_t ns = ns_since(start);
    in_run_ = false;
    times_.run_ns += ns;
    times_.run_ns_max = std::max(times_.run_ns_max, ns);
    ++times_.runs;
  }

  [[nodiscard]] BlockIndex block_count() const override { return inner_->block_count(); }
  [[nodiscard]] const wear::LevelerStats& stats() const override { return inner_->stats(); }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

  [[nodiscard]] const SwlTimes& times() const noexcept { return times_; }

 private:
  std::unique_ptr<wear::Leveler> inner_;
  SwlTimes times_;
  bool in_run_ = false;
};

/// swl.* timing metrics from the merged times of one or more levelers;
/// `busy_base_ns` is the wall time the leveler's share is taken of.
inline void set_swl_times(Outcome& out, const SwlTimes& t, double busy_base_ns) {
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  out.set("swl.busy_frac", ratio(n(t.wall_ns()), busy_base_ns));
  out.set("swl.bet_update_ns", ratio(n(t.update_ns), n(t.updates)));
  out.set("swl.run_us_mean", ratio(n(t.run_ns) / 1e3, n(t.runs)));
  out.set("swl.run_us_max", n(t.run_ns_max) / 1e3);
  out.set("swl.collect_us_mean", ratio(n(t.collect_ns) / 1e3, n(t.collects)));
}

inline void set_swl_stats(Outcome& out, const wear::LevelerStats& s) {
  out.set("swl.activations", static_cast<double>(s.activations));
  out.set("swl.collections", static_cast<double>(s.collections_requested));
  out.set("swl.bet_resets", static_cast<double>(s.bet_resets));
  out.set("swl.stalls", static_cast<double>(s.stalls));
}

}  // namespace swl::e2e

#endif  // SWL_BENCH_E2E_TIMED_LEVELER_HPP
