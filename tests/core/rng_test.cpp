#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "core/contracts.hpp"

namespace swl {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(17);
  constexpr std::uint64_t kBuckets = 10;
  std::array<int, kBuckets> counts{};
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBuckets)];
  for (const auto c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(23);
  double sum = 0.0;
  constexpr int kSamples = 200'000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kSamples, 4.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), PreconditionError);
  EXPECT_THROW(ZipfSampler(10, -0.5), PreconditionError);
}

TEST(Zipf, ZeroSkewIsUniform) {
  ZipfSampler z(10, 0.0);
  Rng rng(37);
  std::array<int, 10> counts{};
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) ++counts[z.sample(rng)];
  for (const auto c : counts) EXPECT_NEAR(c, kSamples / 10, kSamples / 10 * 0.1);
}

TEST(Zipf, SkewFavorsLowRanks) {
  ZipfSampler z(100, 1.0);
  Rng rng(41);
  std::vector<int> counts(100, 0);
  constexpr int kSamples = 200'000;
  for (int i = 0; i < kSamples; ++i) ++counts[z.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
  // Zipf(1): P(0)/P(9) == 10.
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[9], 10.0, 2.0);
}

TEST(Zipf, SamplesCoverSupport) {
  ZipfSampler z(5, 0.8);
  Rng rng(43);
  std::array<bool, 5> seen{};
  for (int i = 0; i < 10'000; ++i) seen[z.sample(rng)] = true;
  for (const bool s : seen) EXPECT_TRUE(s);
}

// The guide table is an index, not an approximation: every u must map to
// exactly the rank a binary search over the CDF (std::lower_bound) finds,
// including u on a bucket edge k/n, one ulp either side of it, and the
// extremes of [0, 1).
TEST(Zipf, GuidedRankEqualsLowerBound) {
  for (const std::uint64_t n : {1ULL, 2ULL, 3ULL, 17ULL, 4'577ULL, 24'000ULL}) {
    for (const double s : {0.0, 0.6, 0.9, 1.0, 2.5}) {
      const ZipfSampler z(n, s);
      const std::vector<double>& cdf = z.cdf();
      ASSERT_EQ(cdf.size(), n);
      ASSERT_EQ(cdf.back(), 1.0);
      const auto expect_exact = [&](double u) {
        const auto want = static_cast<std::uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        ASSERT_EQ(z.rank_of(u), want) << "n=" << n << " s=" << s << " u=" << u;
      };
      expect_exact(0.0);
      expect_exact(std::nextafter(1.0, 0.0));
      for (std::uint64_t k = 0; k < n; ++k) {
        const double edge = static_cast<double>(k) / static_cast<double>(n);
        expect_exact(edge);
        if (k > 0) expect_exact(std::nextafter(edge, 0.0));
        expect_exact(std::nextafter(edge, 1.0));
      }
      Rng rng(n * 31 + static_cast<std::uint64_t>(s * 10));
      for (int i = 0; i < 100'000; ++i) expect_exact(rng.uniform());
    }
  }
}

TEST(Zipf, SampleIsTheRankOfOneUniformDraw) {
  const ZipfSampler z(4'577, 0.9);
  Rng a(47);
  Rng b(47);
  for (int i = 0; i < 10'000; ++i) ASSERT_EQ(z.sample(a), z.rank_of(b.uniform()));
}

}  // namespace
}  // namespace swl
