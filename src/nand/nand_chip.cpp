#include "nand/nand_chip.hpp"

#include <algorithm>

// AddressSanitizer builds poison an arena while it sits on the free list, so
// a page view held across its block's erase faults instead of silently
// reading the next owner's bytes. Without ASan the header's
// ASAN_(UN)POISON_MEMORY_REGION macros compile to nothing.
#include <sanitizer/asan_interface.h>

#include "core/contracts.hpp"

namespace swl::nand {

NandChip::NandChip(NandConfig config, SimClock* clock)
    : config_(std::move(config)), clock_(clock), failure_rng_(config_.failures.seed) {
  SWL_REQUIRE(config_.geometry.valid(), "invalid flash geometry");
  SWL_REQUIRE(config_.timing.endurance > 0, "endurance must be positive");
  blocks_.resize(config_.geometry.block_count);
  page_stride_ = config_.geometry.pages_per_block;
  pages_.resize(static_cast<std::size_t>(config_.geometry.block_count) * page_stride_);
  erase_counts_.assign(config_.geometry.block_count, 0);
  inject_failures_ = config_.failures.enabled();
}

std::span<std::uint8_t> NandChip::arena_slice(const Block& block, PageIndex page) const {
  SWL_ASSERT(block.data != nullptr, "payload arena not allocated");
  const std::size_t page_size = config_.geometry.page_size_bytes;
  return {block.data.get() + static_cast<std::size_t>(page) * page_size, page_size};
}

void NandChip::store_page_bytes(Block& block, Page& page, PageIndex page_index,
                                std::span<const std::uint8_t> data) {
  if (block.data == nullptr) {
    if (free_arenas_.empty()) {
      block.data = std::make_unique<std::uint8_t[]>(arena_bytes());
    } else {
      block.data = std::move(free_arenas_.back());
      free_arenas_.pop_back();
      ASAN_UNPOISON_MEMORY_REGION(block.data.get(), arena_bytes());
    }
    if (!block.had_arena) {
      block.had_arena = true;
      ++counters_.payload_arena_allocations;
    }
  }
  const std::span<std::uint8_t> dst = arena_slice(block, page_index);
  std::copy(data.begin(), data.end(), dst.begin());
  page.has_data = true;
}

void NandChip::consume_page(BlockIndex block_index, PageIndex page_index) {
  Block& block = blocks_[block_index];
  Page& page = page_at(block_index, page_index);
  if (!page_current(block, page)) {
    page = Page{};  // lazily apply the last erase before consuming
    page.epoch = block.epoch;
  }
  if (page.state == PageState::valid) --block.valid;
  if (page.state != PageState::invalid) ++block.invalid;
  page.payload = 0xBAD0BAD0BAD0BAD0ULL;
  page.spare = SpareArea{};
  page.has_data = false;
  page.state = PageState::invalid;
  if (page_index >= block.next_program) block.next_program = page_index + 1;
}

bool NandChip::inject_program_failure(BlockIndex block) {
  const auto& f = config_.failures;
  const double wear_ratio =
      static_cast<double>(erase_counts_[block]) / static_cast<double>(config_.timing.endurance);
  return failure_rng_.chance(f.program_fail_p + f.wear_factor * wear_ratio);
}

bool NandChip::inject_erase_failure() {
  const auto& f = config_.failures;
  return f.enabled() && failure_rng_.chance(f.erase_fail_p);
}

Status NandChip::erase_block(BlockIndex index) {
  thread_checker_.check("NandChip::erase_block");
  check_block(index);
  Block& block = blocks_[index];
  if (block.retired) return Status::bad_block;
  if (config_.retire_worn_blocks && erase_counts_[index] >= config_.timing.endurance) {
    block.retired = true;
    return Status::block_worn_out;
  }
  switch (consult_power_loss(CrashOp::erase)) {
    case CrashDecision::proceed:
      break;
    case CrashDecision::cut_before:
      throw PowerLossError{};
    case CrashDecision::cut_during:
      // Partially erased block: every cell is in an indeterminate state, so
      // all pages read back as ECC-failing garbage. The erase did not
      // complete — the count stays, and no observer fires. Recovery reclaims
      // the block through a fresh (full) erase.
      for (PageIndex p = 0; p < config_.geometry.pages_per_block; ++p) {
        consume_page(index, p);
      }
      throw PowerLossError{};
  }
  tick(config_.timing.erase_block_us);
  if (inject_failures_ && inject_erase_failure()) {
    ++counters_.erase_failures;
    block.retired = true;  // a failed erase permanently retires the block
    return Status::erase_failed;
  }
  ++counters_.erases;
  // O(1) logical erase: bumping the epoch makes every page's stored content
  // stale — stale pages read back as free, and the next program of each page
  // lazily resets it. The payload arena (block.data) goes to the free list:
  // its stale bytes are unreachable, and the next block that needs an arena
  // reuses it while it is still in cache. Only this completed path recycles;
  // the failed, torn and interrupted erases above keep the arena, so what
  // they leave readable stays readable.
  if (block.data != nullptr) {
    ASAN_POISON_MEMORY_REGION(block.data.get(), arena_bytes());
    free_arenas_.push_back(std::move(block.data));
  }
  ++block.epoch;
  block.valid = 0;
  block.invalid = 0;
  block.next_program = 0;
  const std::uint32_t count = ++erase_counts_[index];
  if (!first_failure_ && count >= config_.timing.endurance) {
    first_failure_ = FailureEvent{
        .block = index,
        .time_us = clock_ != nullptr ? clock_->now() : 0,
        .total_erases = counters_.erases,
    };
  }
  for (const auto& observer : erase_observers_) {
    if (observer) observer(index, count);
  }
  return Status::ok;
}

void NandChip::forget_logical_state() {
  for (BlockIndex b = 0; b < config_.geometry.block_count; ++b) {
    Block& block = blocks_[b];
    PageIndex valid = 0;
    for (PageIndex p = 0; p < config_.geometry.pages_per_block; ++p) {
      Page& page = page_at(b, p);
      if (!page_current(block, page)) continue;  // stale content: reads as free
      if (page.state == PageState::invalid) page.state = PageState::valid;
      if (page.state == PageState::valid) ++valid;
    }
    block.valid = valid;
    block.invalid = 0;
  }
}

std::size_t NandChip::add_erase_observer(EraseObserver observer) {
  thread_checker_.check("NandChip::add_erase_observer");
  SWL_REQUIRE(static_cast<bool>(observer), "null erase observer");
  erase_observers_.push_back(std::move(observer));
  return erase_observers_.size() - 1;
}

void NandChip::remove_erase_observer(std::size_t token) {
  thread_checker_.check("NandChip::remove_erase_observer");
  SWL_REQUIRE(token < erase_observers_.size(), "unknown erase-observer token");
  SWL_REQUIRE(static_cast<bool>(erase_observers_[token]), "erase observer already removed");
  erase_observers_[token] = nullptr;
}

}  // namespace swl::nand
