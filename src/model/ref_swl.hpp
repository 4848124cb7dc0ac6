// Executable reference model of the SW Leveler (Algorithms 1–2).
//
// Where the production SwLeveler maintains ecnt/fcnt incrementally and the
// BET as a bit vector, this oracle keeps the *raw erase log* of the current
// resetting interval — fed straight from the chip's erase observer, not from
// the leveler, so a production leveler that drops an SWL-BETUpdate is caught
// — and recomputes every quantity from it the obvious way:
//   ecnt  = length of the log,
//   BET   = union of the flags covering logged blocks,
//   fcnt  = popcount of that union,
//   unevenness = ecnt / fcnt.
// The cyclic-scan cursor and the per-interval findex randomization are
// cross-checked through the leveler's LevelerTraceSink events: every
// selection must land on the first clear flag the scan would find, and every
// reset must re-randomize findex with the mirrored RNG stream.
#ifndef SWL_MODEL_REF_SWL_HPP
#define SWL_MODEL_REF_SWL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "swl/leveler.hpp"

namespace swl::model {

class RefSwLeveler final : public wear::LevelerTraceSink {
 public:
  RefSwLeveler(BlockIndex block_count, const wear::LevelerConfig& config);

  /// Ground-truth erase feed; wire to NandChip::add_erase_observer so the
  /// model sees every erase whether or not the leveler's BETUpdate ran.
  void on_chip_erase(BlockIndex block);

  // LevelerTraceSink (wire via SwLeveler::set_trace_sink). Selection and
  // reset events are verified at event time; a mismatch is sticky and
  // surfaces from the next check().
  void on_select(std::size_t flag) override;
  void on_reset(std::size_t new_findex) override;

  /// Recomputes everything from the raw log and compares against the
  /// production leveler. Returns "" when consistent, else a diagnostic.
  [[nodiscard]] std::string check(const wear::SwLeveler& leveler) const;

  /// Adopts a freshly constructed (optionally snapshot-restored) leveler as
  /// the new baseline after a power cycle: the erase log restarts empty on
  /// top of the restored BET/ecnt, and the RNG mirror restarts from the
  /// config seed exactly like the new leveler's own stream. Requires the
  /// restored findex to be in range (SwLeveler::restore_state re-randomizes
  /// out-of-range cursors, which would desynchronize the mirror).
  void resync(const wear::SwLeveler& leveler);

  // -- naive recomputation (exposed for direct unit testing) -----------------

  [[nodiscard]] std::uint64_t ecnt() const noexcept {
    return baseline_ecnt_ + erase_log_.size();
  }
  [[nodiscard]] std::vector<bool> flags() const;
  [[nodiscard]] std::uint64_t fcnt() const;
  [[nodiscard]] double unevenness() const;
  [[nodiscard]] bool needs_leveling() const;
  [[nodiscard]] std::size_t flag_count() const noexcept { return flag_count_; }

 private:
  [[nodiscard]] std::size_t flag_of(BlockIndex block) const noexcept { return block >> k_; }
  /// First clear flag at or after `start`, cyclically; flag_count_ when all
  /// flags are set (which Algorithm 1 never lets a selection see).
  [[nodiscard]] std::size_t next_clear(const std::vector<bool>& f, std::size_t start) const;
  void record_event_error(std::string message);

  BlockIndex block_count_;
  std::uint32_t k_;
  std::size_t flag_count_;
  double threshold_;
  wear::LevelerConfig::Selection selection_;
  std::uint64_t rng_seed_;
  Rng rng_;  // mirrors the production leveler's private stream
  std::vector<BlockIndex> erase_log_;  // erases since the last reset/resync
  std::vector<bool> baseline_flags_;   // BET adopted at the last resync
  std::uint64_t baseline_ecnt_ = 0;
  std::size_t expected_findex_ = 0;
  std::string event_error_;  // first event-time mismatch (sticky)
};

}  // namespace swl::model

#endif  // SWL_MODEL_REF_SWL_HPP
