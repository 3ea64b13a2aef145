#include "core/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.h"

namespace mntp::core {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic example, population
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsBulk) {
  Rng rng(5);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(2.0, 3.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // copy
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 1.0);
}

TEST(Percentile, SortedInterpolation) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 50), 25.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 25), 17.5);
}

TEST(Percentile, UnsortedInputSorts) {
  const std::vector<double> xs{40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Percentile, EmptyAndClamping) {
  EXPECT_EQ(percentile_sorted({}, 50), 0.0);
  const std::vector<double> xs{1, 2};
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, -5), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 150), 2.0);
}

TEST(Summarize, KnownSample) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
}

TEST(Summarize, EmptyGivesZeros) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Rmse, AgainstReference) {
  const std::vector<double> xs{3, -3, 3, -3};
  EXPECT_DOUBLE_EQ(rmse(xs), 3.0);
  EXPECT_DOUBLE_EQ(rmse(xs, 3.0), std::sqrt((0 + 36 + 0 + 36) / 4.0));
  EXPECT_EQ(rmse({}), 0.0);
}

TEST(MeanAbsMaxAbs, Basics) {
  const std::vector<double> xs{-4, 2, -1, 3};
  EXPECT_DOUBLE_EQ(mean_abs(xs), 2.5);
  EXPECT_DOUBLE_EQ(max_abs(xs), 4.0);
  EXPECT_EQ(mean_abs({}), 0.0);
  EXPECT_EQ(max_abs({}), 0.0);
}

TEST(Cdf, StepFunction) {
  const std::vector<double> xs{1, 2, 2, 3};
  const Cdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
}

TEST(Cdf, QuantileInverse) {
  const std::vector<double> xs{10, 20, 30, 40, 50};
  const Cdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 50.0);
}

TEST(Cdf, CurveSpansRangeAndIsMonotone) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.normal(0, 5));
  const Cdf cdf(xs);
  const auto curve = cdf.curve(50);
  ASSERT_EQ(curve.size(), 50u);
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].second, curve[i].second);
    EXPECT_LT(curve[i - 1].first, curve[i].first);
  }
}

TEST(Cdf, CurveEndsAtTheMaximum) {
  // Regression: the last x was lo + step * (points - 1), which rounds to
  // 0.8999999999999999 here, so the curve ended at F = 0.5.
  const std::vector<double> xs{0.2, 0.9};
  const auto curve = Cdf(xs).curve(3);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_EQ(curve.back().first, 0.9);
  EXPECT_EQ(curve.back().second, 1.0);
}

TEST(Cdf, EmptyBehaviour) {
  const Cdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_EQ(cdf.at(1.0), 0.0);
  EXPECT_TRUE(cdf.curve(10).empty());
}

// Property: summarize percentiles are monotone for random data.
class SummaryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SummaryProperty, PercentilesMonotone) {
  Rng rng(GetParam());
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.lognormal(0.0, 1.5));
  const Summary s = summarize(xs);
  EXPECT_LE(s.min, s.p25);
  EXPECT_LE(s.p25, s.median);
  EXPECT_LE(s.median, s.p75);
  EXPECT_LE(s.p75, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_GE(s.stddev, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace mntp::core
