#include "tl/frontier.hpp"

#include <algorithm>

namespace swl::tl {

void FrontierCandidates::offer(const nand::NandChip& chip, BlockIndex b) {
  const PageIndex pages = chip.geometry().pages_per_block;
  const PageIndex free_pages = chip.free_page_count(b);
  if (free_pages == 0) return;
  for (PageIndex p = pages - free_pages; p < pages; ++p) {
    if (chip.page_state({b, p}) != nand::PageState::free) return;
  }
  partial_.emplace_back(free_pages, b);
}

void FrontierCandidates::adopt(PageIndex pages_per_block,
                               std::initializer_list<Frontier*> frontiers) {
  std::sort(partial_.rbegin(), partial_.rend());
  std::size_t i = 0;
  for (Frontier* f : frontiers) {
    if (i >= partial_.size()) return;
    if (f == nullptr) continue;
    f->block = partial_[i].second;
    f->next = pages_per_block - partial_[i].first;
    ++i;
  }
}

}  // namespace swl::tl
