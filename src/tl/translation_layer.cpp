#include "tl/translation_layer.hpp"

#include "core/contracts.hpp"

namespace swl::tl {

TranslationLayer::TranslationLayer(nand::NandChip& chip) : chip_(chip) {
  // Erase accounting observer: attribute every erase to either regular GC
  // or to static wear leveling, depending on what this layer is serving.
  observer_tokens_.push_back(chip_.add_erase_observer([this](BlockIndex, std::uint32_t) {
    if (serving_swl_) {
      ++counters_.swl_erases;
    } else {
      ++counters_.gc_erases;
    }
  }));
}

TranslationLayer::~TranslationLayer() {
  for (const std::size_t token : observer_tokens_) chip_.remove_erase_observer(token);
}

void TranslationLayer::attach_leveler(std::unique_ptr<wear::Leveler> leveler) {
  SWL_REQUIRE(leveler != nullptr, "null leveler");
  SWL_REQUIRE(leveler_ == nullptr, "a leveler is already attached");
  SWL_REQUIRE(leveler->block_count() == chip_.geometry().block_count,
              "leveler covers a different block count than the chip");
  leveler_ = std::move(leveler);
  // The policy's update hook (SWL-BETUpdate for the SW Leveler) is invoked
  // by the Cleaner on every erase (Section 3.3); wiring it to the chip's
  // erase observer covers every erase path.
  observer_tokens_.push_back(
      chip_.add_erase_observer([lev = leveler_.get()](BlockIndex block, std::uint32_t count) {
        lev->on_block_erased(block, count);
      }));
}

void TranslationLayer::collect_blocks(BlockIndex first, BlockIndex count) {
  SWL_ASSERT(!serving_swl_, "re-entrant SWL collection");
  serving_swl_ = true;
  try {
    do_collect_blocks(first, count);
  } catch (...) {
    serving_swl_ = false;
    throw;
  }
  serving_swl_ = false;
}

void TranslationLayer::keep_newest(Ppa& winner, std::uint64_t& winner_seq, Ppa addr,
                                   std::uint64_t seq) {
  if (!winner.valid() || seq > winner_seq) {
    // Benign discard: the older version is superseded by construction, and a
    // crash may already have consumed the page.
    if (winner.valid()) discard_status(chip_.invalidate_page(winner));
    winner = addr;
    winner_seq = seq;
  } else {
    discard_status(chip_.invalidate_page(addr));  // benign: stale duplicate
  }
}

}  // namespace swl::tl
