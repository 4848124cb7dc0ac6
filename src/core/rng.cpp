#include "core/rng.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"

namespace swl {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method; bound == 0 would be a caller bug but
  // noexcept forbids throwing — clamp to 1 to stay well defined.
  if (bound == 0) bound = 1;
  while (true) {
    const std::uint64_t x = next();
    const auto m = static_cast<unsigned __int128>(x) * bound;
    const auto lo = static_cast<std::uint64_t>(m);
    if (lo >= bound || lo >= (-bound) % bound) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) noexcept {
  if (hi < lo) hi = lo;
  return lo + below(hi - lo + 1);
}

double Rng::uniform() noexcept {
  // 53 top bits → uniform double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept { return uniform() < p; }

double Rng::exponential(double mean) noexcept {
  double u = uniform();
  if (u >= 1.0) u = 0.9999999999999999;
  return -mean * std::log1p(-u);
}

Rng Rng::fork() noexcept { return Rng(next()); }

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
  SWL_REQUIRE(n > 0, "zipf population must be non-empty");
  SWL_REQUIRE(s >= 0.0, "zipf skew must be non-negative");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (auto& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against accumulated rounding
  guide_.resize(n + 1);
  std::uint64_t rank = 0;
  for (std::uint64_t k = 0; k <= n; ++k) {
    const double edge = static_cast<double>(k) / static_cast<double>(n);
    while (cdf_[rank] < edge) ++rank;
    guide_[k] = rank;
  }
}

std::uint64_t ZipfSampler::rank_of(double u) const noexcept {
  // Bucket k = floor(u * n) holds the answer between guide_[k] and
  // guide_[k + 1]. u * n can round across a bucket edge, so widen the
  // bounds until they bracket the first index with cdf_[i] >= u.
  const std::uint64_t k = std::min(static_cast<std::uint64_t>(u * static_cast<double>(n_)), n_ - 1);
  std::uint64_t lo = guide_[k];
  std::uint64_t hi = guide_[k + 1];
  while (lo > 0 && cdf_[lo - 1] >= u) --lo;
  while (hi < n_ - 1 && cdf_[hi] < u) ++hi;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace swl
