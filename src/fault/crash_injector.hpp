// Deterministic crash-point fault injection.
//
// Every persistent operation — page program, block erase, snapshot slot
// write — is a boundary at which power may be cut. Operation number i
// (0-based, in execution order) yields two crash points:
//   2*i     cut *before* the operation: power fails, the medium untouched;
//   2*i + 1 cut *during* it: the torn result is applied first — a consumed
//           (ECC-failing) page, a block full of garbage whose erase count
//           never incremented, or a truncated snapshot slot.
// A probe run with an unarmed injector counts the operations, so a workload
// performing N persistent operations has exactly 2*N crash points;
// recovery.hpp enumerates all of them exhaustively.
#ifndef SWL_FAULT_CRASH_INJECTOR_HPP
#define SWL_FAULT_CRASH_INJECTOR_HPP

#include <cstdint>
#include <vector>

#include "nand/power_loss.hpp"
#include "swl/snapshot.hpp"

namespace swl::fault {

/// The countdown shared by every persistent-operation source. Attach to a
/// chip via NandChip::set_power_loss_hook and to a SnapshotStore by wrapping
/// it in CrashSnapshotStore, so one crash-point numbering covers all of them.
class CrashInjector final : public nand::PowerLossHook {
 public:
  /// Unarmed (probe mode): counts operations, never cuts power.
  CrashInjector() = default;
  /// Armed at `crash_point` (see the numbering above).
  explicit CrashInjector(std::uint64_t crash_point) noexcept { arm(crash_point); }

  void arm(std::uint64_t crash_point) noexcept {
    armed_ = true;
    crash_point_ = crash_point;
  }

  /// Persistent operations observed so far (a probe run's total).
  [[nodiscard]] std::uint64_t operations() const noexcept { return operations_; }
  [[nodiscard]] bool fired() const noexcept { return fired_; }
  /// Operation kind at which power was cut (meaningful once fired()).
  [[nodiscard]] nand::CrashOp fired_op() const noexcept { return fired_op_; }

  nand::CrashDecision on_operation(nand::CrashOp op) override;

 private:
  std::uint64_t operations_ = 0;
  std::uint64_t crash_point_ = 0;
  bool armed_ = false;
  bool fired_ = false;
  nand::CrashOp fired_op_ = nand::CrashOp::program;
};

/// SnapshotStore decorator that routes slot writes through the injector so
/// the dual-buffer writes share the chip's crash-point numbering. A cut
/// *during* a slot write commits a truncated prefix of the encoding — the
/// torn dual-buffer write the snapshot checksum exists to catch — before
/// power dies.
class CrashSnapshotStore final : public wear::SnapshotStore {
 public:
  CrashSnapshotStore(wear::SnapshotStore& inner, CrashInjector& injector) noexcept
      : inner_(inner), injector_(injector) {}

  [[nodiscard]] Status write_slot(unsigned slot,
                                  const std::vector<std::uint8_t>& bytes) override;
  [[nodiscard]] std::vector<std::uint8_t> read_slot(unsigned slot) const override;

 private:
  wear::SnapshotStore& inner_;
  CrashInjector& injector_;
};

}  // namespace swl::fault

#endif  // SWL_FAULT_CRASH_INJECTOR_HPP
