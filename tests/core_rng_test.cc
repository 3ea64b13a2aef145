#include "core/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "core/stats.h"
#include "sim/replicate.h"

namespace mntp::core {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsIndependentOfParentDrawCount) {
  // Fork first, then the parent's subsequent draws must not change what
  // an identically-created fork yields.
  Rng parent1(7), parent2(7);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  (void)parent1.uniform(0, 1);  // perturb parent1 only
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(child1.next_u64(), child2.next_u64());
  }
}

TEST(Rng, DrawKIsDeriveStreamSeedOfK) {
  Rng rng(0xDEADBEEFULL);
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(rng.next_u64(), derive_stream_seed(0xDEADBEEFULL, k));
  }
}

TEST(Rng, GoldenFirstDraws) {
  // Pins the engine: changing these values changes every realization
  // the repository publishes, so it must be deliberate.
  Rng rng(1);
  EXPECT_EQ(rng.next_u64(), 0x910a2dec89025cc1ull);
  EXPECT_EQ(rng.next_u64(), 0xbeeb8da1658eec67ull);
  EXPECT_EQ(rng.next_u64(), 0xf893a2eefb32555eull);
  EXPECT_EQ(rng.next_u64(), 0x71c18690ee42c90bull);
}

TEST(Rng, ForkNeverAliasesAReplicateRoot) {
  // Draw k of Rng(base) is replicate_seed(base, k + 1), so an unsalted
  // fork would hand replicate r's sub-streams the roots of replicates
  // r + 1, r + 2, ... A child's first draw is splitmix64 of its seed (a
  // bijection), so comparing first draws compares seeds.
  for (const std::uint64_t base : {1ull, 8ull, 12ull, 777ull}) {
    std::set<std::uint64_t> roots;
    for (std::uint64_t r = 0; r < 1024; ++r) {
      roots.insert(Rng(sim::replicate_seed(base, r)).next_u64());
    }
    Rng naive(base);
    EXPECT_TRUE(roots.contains(Rng(naive.next_u64()).next_u64()));
    Rng parent(base);
    for (int k = 0; k < 64; ++k) {
      EXPECT_FALSE(roots.contains(parent.fork().next_u64()))
          << "base " << base << " child " << k;
    }
  }
}

TEST(Rng, UniformBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    ASSERT_GE(x, 2.0);
    ASSERT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveAndCoverage) {
  Rng rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformIntCoversSmallRangesUniformly) {
  // Lemire's method with its rejection step is exactly uniform; a
  // chi-square over n cells stays under the 0.1% critical value for
  // n - 1 <= 9 degrees of freedom (27.88).
  Rng rng(17);
  for (const std::int64_t n : {2, 3, 5, 7, 10}) {
    std::vector<int> counts(static_cast<std::size_t>(n), 0);
    const int draws = 20000 * static_cast<int>(n);
    for (int i = 0; i < draws; ++i) {
      const std::int64_t v = rng.uniform_int(-3, -3 + n - 1);
      ASSERT_GE(v, -3);
      ASSERT_LE(v, -3 + n - 1);
      ++counts[static_cast<std::size_t>(v + 3)];
    }
    double chi2 = 0.0;
    for (const int c : counts) chi2 += (c - 20000.0) * (c - 20000.0) / 20000.0;
    EXPECT_LT(chi2, 27.88) << "n = " << n;
  }
  // The full 64-bit range is one raw draw, offset from INT64_MIN.
  Rng full(18), raw(18);
  EXPECT_EQ(static_cast<std::uint64_t>(full.uniform_int(INT64_MIN, INT64_MAX)),
            raw.next_u64() ^ (1ull << 63));
  EXPECT_EQ(full.next_u64(), raw.next_u64());
}

TEST(Rng, IndexInRange) {
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    ASSERT_LT(rng.index(7), 7u);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, NormalFastMoments) {
  // normal() is the polar-method variant that normal_fast() was; the
  // tight moment and spare-band check keeps its name.
  Rng rng(19);
  std::vector<double> xs;
  xs.reserve(200000);
  for (int i = 0; i < 200000; ++i) xs.push_back(rng.normal(1.5, 2.0));
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  EXPECT_NEAR(mean, 1.5, 0.02);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.02);
  // The polar method's cached spare is a real normal draw too: the
  // 68% central band holds across even/odd draws alike.
  int in_band_even = 0, in_band_odd = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const bool in_band = std::fabs(xs[i] - 1.5) <= 2.0;
    (i % 2 == 0 ? in_band_even : in_band_odd) += in_band ? 1 : 0;
  }
  EXPECT_NEAR(in_band_even / 100000.0, 0.683, 0.01);
  EXPECT_NEAR(in_band_odd / 100000.0, 0.683, 0.01);
}

TEST(Rng, NormalCachesItsSpare) {
  // Two normal() calls consume exactly one accepted polar pair: the
  // first returns u*m, the second the cached v*m with no draw.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    Rng rng(seed), mirror(seed);
    double u, v, s;
    do {
      u = 2.0 * mirror.canonical() - 1.0;
      v = 2.0 * mirror.canonical() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    EXPECT_EQ(rng.normal(0.0, 1.0), u * m);
    EXPECT_EQ(rng.normal(0.0, 1.0), v * m);
    EXPECT_EQ(rng.next_u64(), mirror.next_u64()) << "seed " << seed;
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.15);
  EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(12);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, LognormalMedian) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.lognormal(std::log(4.0), 0.5));
  EXPECT_NEAR(percentile(xs, 50), 4.0, 0.2);
}

TEST(Rng, ParetoScaleAndTail) {
  Rng rng(14);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.pareto(2.0, 1.5));
  for (double x : xs) ASSERT_GE(x, 2.0);
  // Median of Pareto(xm, alpha) is xm * 2^(1/alpha).
  EXPECT_NEAR(percentile(xs, 50), 2.0 * std::pow(2.0, 1.0 / 1.5), 0.1);
}

TEST(Rng, ParetoTailIsHardBounded) {
  // The underlying uniform is clamped to >= 2^-53, so every draw obeys
  // xm * u^(-1/alpha) <= xm * 2^(53/alpha) with no downstream cap. The
  // bound must be finite for the shapes the channel models use.
  const double xm = 0.08, alpha = 1.5;
  const double bound = xm * std::pow(2.0, 53.0 / alpha);
  ASSERT_TRUE(std::isfinite(bound));
  EXPECT_DOUBLE_EQ(Rng::kParetoMinU, std::pow(2.0, -53.0));
  Rng rng(15);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.pareto(xm, alpha);
    ASSERT_GE(x, xm);
    ASSERT_LE(x, bound);
  }
}

TEST(Rng, DeriveStreamSeedIsConstexprAndDistinct) {
  // The stream-derivation rule is part of the reproducibility contract:
  // stream 0 is the plain splitmix64 finalizer of the base (which is
  // also how replicate r maps to stream r-1), and nearby streams/bases
  // must land on distinct seeds.
  static_assert(derive_stream_seed(7, 0) == splitmix64(7));
  static_assert(derive_stream_seed(7, 1) != derive_stream_seed(7, 2));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base = 0; base < 8; ++base) {
    for (std::uint64_t stream = 0; stream < 64; ++stream) {
      seeds.insert(derive_stream_seed(base, stream));
    }
  }
  EXPECT_EQ(seeds.size(), 8u * 64u);
}

TEST(Rng, CanonicalIsOneDrawInUnitInterval) {
  Rng rng(16), mirror(16);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.canonical();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    // Exactly one engine draw per canonical(): the raw stream mirror
    // stays aligned.
    ASSERT_EQ(static_cast<double>(mirror.next_u64() >> 11) * 0x1p-53, u);
  }
}

// The fleet's per-query generator was a separate SmallRng class; Rng
// now carries its stream and draw math, and these cases keep the
// suite name they have always run under.
TEST(SmallRng, CanonicalIsInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.canonical();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(SmallRng, NormalMomentsMatch) {
  Rng rng(11);
  constexpr int kN = 200'000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(SmallRng, ParetoRespectsScaleAndTailClamp) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.pareto(1.0, 4.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, std::pow(2.0, 53.0 / 4.0));
  }
}

}  // namespace
}  // namespace mntp::core
