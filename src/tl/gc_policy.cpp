#include "tl/gc_policy.hpp"

#include <algorithm>

#include "core/contracts.hpp"

namespace swl::tl {

std::string_view to_string(VictimPolicy p) noexcept {
  switch (p) {
    case VictimPolicy::greedy_cyclic:
      return "greedy_cyclic";
    case VictimPolicy::cost_benefit_age:
      return "cost_benefit_age";
  }
  return "unknown";
}

BlockIndex gc_trigger_level(double fraction, BlockIndex min_free_blocks,
                            BlockIndex block_count) noexcept {
  return std::max(min_free_blocks,
                  static_cast<BlockIndex>(fraction * static_cast<double>(block_count)));
}

double cost_benefit_score(PageIndex valid_pages, PageIndex pages_per_block, double age) noexcept {
  if (pages_per_block == 0 || valid_pages > pages_per_block || age < 0.0) return 0.0;
  const double u = static_cast<double>(valid_pages) / static_cast<double>(pages_per_block);
  if (u == 0.0) {
    // A fully invalid block is free profit; rank it above everything with
    // live data, older ones first.
    return 1e18 + age;
  }
  return age * (1.0 - u) / (2.0 * u);
}

CyclicVictimScanner::CyclicVictimScanner(BlockIndex block_count) : block_count_(block_count) {
  SWL_REQUIRE(block_count > 0, "scanner needs a positive block count");
}

}  // namespace swl::tl
