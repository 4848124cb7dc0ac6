#include "tl/free_block_pool.hpp"

#include <algorithm>

#include "core/contracts.hpp"

namespace swl::tl {

std::string_view to_string(AllocPolicy p) noexcept {
  switch (p) {
    case AllocPolicy::fifo:
      return "fifo";
    case AllocPolicy::lifo:
      return "lifo";
    case AllocPolicy::coldest_first:
      return "coldest_first";
  }
  return "unknown";
}

FreeBlockPool::FreeBlockPool(BlockIndex block_count, AllocPolicy policy)
    : policy_(policy), key_of_(block_count, kNotPooled) {
  SWL_REQUIRE(block_count > 0, "pool needs a positive block count");
}

void FreeBlockPool::add(BlockIndex block, std::uint32_t erase_count) {
  SWL_REQUIRE(block < key_of_.size(), "block out of range");
  SWL_REQUIRE(erase_count < kNotPooled, "erase count out of range");
  SWL_REQUIRE(key_of_[block] == kNotPooled, "block already pooled");
  if (policy_ == AllocPolicy::coldest_first) {
    ordered_.emplace(erase_count, block);
  } else {
    queue_.push_back(block);
  }
  key_of_[block] = erase_count;
  ++count_;
}

BlockIndex FreeBlockPool::take() {
  SWL_REQUIRE(count_ > 0, "allocation from an empty pool");
  BlockIndex block = kInvalidBlock;
  if (policy_ == AllocPolicy::coldest_first) {
    const auto it = ordered_.begin();
    block = it->second;
    ordered_.erase(it);
  } else if (policy_ == AllocPolicy::fifo) {
    block = queue_.front();
    queue_.pop_front();
  } else {  // lifo
    block = queue_.back();
    queue_.pop_back();
  }
  key_of_[block] = kNotPooled;
  --count_;
  return block;
}

void FreeBlockPool::remove(BlockIndex block) {
  SWL_REQUIRE(block < key_of_.size(), "block out of range");
  SWL_REQUIRE(key_of_[block] != kNotPooled, "block not pooled");
  if (policy_ == AllocPolicy::coldest_first) {
    ordered_.erase({key_of_[block], block});
  } else {
    // Erased eagerly, so a block re-added later queues at its new position.
    queue_.erase(std::find(queue_.begin(), queue_.end(), block));
  }
  key_of_[block] = kNotPooled;
  --count_;
}

bool FreeBlockPool::contains(BlockIndex block) const {
  SWL_REQUIRE(block < key_of_.size(), "block out of range");
  return key_of_[block] != kNotPooled;
}

}  // namespace swl::tl
