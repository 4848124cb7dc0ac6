// Free-block pool with a configurable allocation policy.
//
// Both translation layers allocate from this pool. Two policies are
// provided:
//   - fifo: blocks are reused in the order they were freed. This matches the
//     paper's baseline, where dynamic wear leveling lives in the *Cleaner*
//     (victim selection) only — blocks holding static data simply never
//     enter the pool, which is exactly the skew static wear leveling exists
//     to fix.
//   - lifo: allocation reuses the most recently freed block (a free *list*
//     used as a stack — a common naive firmware choice). Concentrates wear
//     heavily; the worst baseline for endurance.
//   - coldest_first: allocation returns the free block with the lowest erase
//     count — a much stronger allocation-side dynamic wear leveling, kept as
//     an ablation (see bench_ablation) to show SWL's benefit shrinks when
//     dynamic leveling is aggressive but does not disappear (cold blocks
//     still never reach the pool).
#ifndef SWL_TL_FREE_BLOCK_POOL_HPP
#define SWL_TL_FREE_BLOCK_POOL_HPP

#include <cstdint>
#include <deque>
#include <set>
#include <string_view>
#include <vector>

#include "core/types.hpp"

namespace swl::tl {

enum class AllocPolicy { fifo, lifo, coldest_first };

[[nodiscard]] std::string_view to_string(AllocPolicy p) noexcept;

class FreeBlockPool {
 public:
  explicit FreeBlockPool(BlockIndex block_count, AllocPolicy policy = AllocPolicy::fifo);

  /// Adds a free block with its current erase count. Requires the block not
  /// already pooled.
  void add(BlockIndex block, std::uint32_t erase_count);

  /// Removes and returns the next free block according to the policy
  /// (fifo: least recently freed; lifo: most recently freed; coldest_first:
  /// lowest erase count, ties by block index). Requires !empty().
  BlockIndex take();

  /// Removes a specific block (e.g. the SW Leveler erased it in place and it
  /// is being re-added with a new count). Requires contains(block).
  void remove(BlockIndex block);

  [[nodiscard]] bool contains(BlockIndex block) const;
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] AllocPolicy policy() const noexcept { return policy_; }

 private:
  AllocPolicy policy_;
  // coldest_first: (erase_count, block) ordered set -> O(log n) allocation.
  std::set<std::pair<std::uint32_t, BlockIndex>> ordered_;
  // fifo/lifo: pooled blocks in freed order (remove() erases the entry).
  std::deque<BlockIndex> queue_;
  // erase count under which each pooled block is keyed; kNotPooled otherwise.
  std::vector<std::uint32_t> key_of_;
  std::size_t count_ = 0;
  static constexpr std::uint32_t kNotPooled = 0xFFFFFFFFu;
};

}  // namespace swl::tl

#endif  // SWL_TL_FREE_BLOCK_POOL_HPP
