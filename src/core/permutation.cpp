#include "core/permutation.hpp"

#include <bit>

#include "core/contracts.hpp"
#include "core/rng.hpp"

namespace swl {

RandomPermutation::RandomPermutation(std::uint64_t size, std::uint64_t seed) : size_(size) {
  SWL_REQUIRE(size >= 1, "permutation domain must be non-empty");
  // Smallest even bit width whose range covers size (minimum 2 bits so both
  // Feistel halves are non-trivial).
  std::uint32_t bits =
      std::max<std::uint32_t>(2, static_cast<std::uint32_t>(std::bit_width(size - 1)));
  if (bits % 2 != 0) ++bits;
  half_bits_ = bits / 2;
  half_mask_ = (1ULL << half_bits_) - 1;
  Rng rng(seed);
  for (auto& k : keys_) k = rng.next();
}

std::uint64_t RandomPermutation::feistel(std::uint64_t x) const noexcept {
  std::uint64_t left = (x >> half_bits_) & half_mask_;
  std::uint64_t right = x & half_mask_;
  for (const auto key : keys_) {
    // SplitMix-style round function of (right, key).
    std::uint64_t f = right + key + 0x9E3779B97F4A7C15ULL;
    f = (f ^ (f >> 30)) * 0xBF58476D1CE4E5B9ULL;
    f = (f ^ (f >> 27)) * 0x94D049BB133111EBULL;
    f ^= f >> 31;
    const std::uint64_t next_left = right;
    right = (left ^ f) & half_mask_;
    left = next_left;
  }
  return (left << half_bits_) | right;
}

std::uint64_t RandomPermutation::forward(std::uint64_t x) const {
  SWL_REQUIRE(x < size_, "permutation input out of domain");
  // Cycle walking: the Feistel domain is a power of four >= size, so walk
  // until we land back inside [0, size). Terminates because feistel() is a
  // bijection on the covering domain (expected < 4 steps).
  std::uint64_t y = feistel(x);
  while (y >= size_) y = feistel(y);
  return y;
}

}  // namespace swl
