#include "tl/victim_index.hpp"

#include <bit>

#include "core/contracts.hpp"

namespace swl::tl {

VictimIndex::VictimIndex(BlockIndex block_count, PageIndex pages_per_block, double cost_weight)
    : dirty_(block_count),
      positive_(block_count),
      candidate_(block_count),
      refile_((static_cast<std::size_t>(block_count) + 63) / 64, 0),
      words_per_level_((static_cast<std::size_t>(block_count) + 63) / 64),
      by_invalid_((static_cast<std::size_t>(pages_per_block) + 1) * words_per_level_, 0),
      level_size_(static_cast<std::size_t>(pages_per_block) + 1, 0),
      nonempty_(static_cast<std::size_t>(pages_per_block) + 1),
      level_(block_count, 0),
      min_invalid_(static_cast<std::size_t>(pages_per_block) + 1, pages_per_block + 1),
      block_count_(block_count) {
  SWL_REQUIRE(block_count > 0 && pages_per_block > 0, "empty victim index");
  // Tabulate the exact positivity predicate: gc_score is evaluated verbatim,
  // and monotone (non-decreasing) in the invalid count even under floating
  // rounding, so "invalid >= min_invalid_[valid]" reproduces it bit for bit.
  for (PageIndex v = 0; v <= pages_per_block; ++v) {
    for (PageIndex i = 0; i <= pages_per_block; ++i) {
      if (gc_score(v, i, cost_weight) > 0.0) {
        min_invalid_[v] = i;
        break;
      }
    }
  }
}

void VictimIndex::flush(const nand::NandChip& chip) {
  if (dirty_.none_set()) return;
  const std::vector<std::uint64_t>& words = dirty_.words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    refile_[wi] |= w;
    while (w != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      const auto b = static_cast<BlockIndex>(wi * 64 + bit);
      const PageIndex invalid = chip.invalid_page_count(b);
      if (invalid >= min_invalid_[chip.valid_page_count(b)]) {
        positive_.set(b);
      } else {
        positive_.clear(b);
      }
      if (invalid > 0) {
        candidate_.set(b);
      } else {
        candidate_.clear(b);
      }
    }
  }
  dirty_.reset();
}

}  // namespace swl::tl
