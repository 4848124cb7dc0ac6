// Deterministic random number generation for reproducible simulations.
//
// xoshiro256** by Blackman & Vigna (public domain reference algorithm),
// seeded via SplitMix64 so that any 64-bit seed yields a well-mixed state.
// Every simulation component takes an explicit Rng (or a seed) so that runs
// are bit-for-bit reproducible across platforms — std::mt19937 distributions
// are not portable, hence the bespoke samplers below.
#ifndef SWL_CORE_RNG_HPP
#define SWL_CORE_RNG_HPP

#include <array>
#include <cstdint>
#include <vector>

namespace swl {

/// xoshiro256** pseudo-random generator with portable samplers.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept;

  /// UniformRandomBitGenerator interface (usable with <random> if desired).
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

  /// Uniform integer in [0, bound). Requires bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Forks an independent stream (seeded from this stream's output);
  /// used to give each workload component its own generator.
  Rng fork() noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// Discrete Zipf(s) sampler over {0, 1, ..., n-1} via inverse-CDF table.
/// Rank 0 is the most popular item. Used to model hot/cold skew.
///
/// A guide table (Chen & Asau, 1974) splits [0, 1) into n equal buckets and
/// records the first rank of each, so a draw searches only the few ranks of
/// its bucket instead of the whole CDF.
class ZipfSampler {
 public:
  /// Requires n > 0 and s >= 0 (s == 0 degenerates to uniform).
  ZipfSampler(std::uint64_t n, double s);

  std::uint64_t sample(Rng& rng) const noexcept { return rank_of(rng.uniform()); }

  /// The rank a uniform variate maps to: the first rank whose CDF is >= u.
  /// Requires 0 <= u < 1.
  [[nodiscard]] std::uint64_t rank_of(double u) const noexcept;

  [[nodiscard]] std::uint64_t size() const noexcept { return n_; }
  [[nodiscard]] double skew() const noexcept { return s_; }
  /// cdf()[i] = P(rank <= i); the last entry is exactly 1.
  [[nodiscard]] const std::vector<double>& cdf() const noexcept { return cdf_; }

 private:
  std::uint64_t n_;
  double s_;
  std::vector<double> cdf_;
  // guide_[k] = first rank with cdf_ >= k / n, for k in [0, n].
  std::vector<std::uint64_t> guide_;
};

}  // namespace swl

#endif  // SWL_CORE_RNG_HPP
