#include "core/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "core/stats.h"

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

TEST(Rng, NormalFastMoments) {
  Rng rng(19);
  std::vector<double> xs;
  xs.reserve(200000);
  for (int i = 0; i < 200000; ++i) xs.push_back(rng.normal_fast(1.5, 2.0));
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

TEST(Rng, FillNormalMatchesSequentialFastDraws) {
  Rng a(20), b(20);
  std::vector<double> batch(9, 0.0);
  a.fill_normal(batch, 0.5, 1.25);
  for (double x : batch) {
    ASSERT_DOUBLE_EQ(x, b.normal_fast(0.5, 1.25));
  }
  // The spare-deviate cache state carries across the batch boundary.
  ASSERT_DOUBLE_EQ(a.normal_fast(0.5, 1.25), b.normal_fast(0.5, 1.25));
}

}  // namespace
}  // namespace mntp::core
