#include "core/linreg.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.h"
#include "support/least_squares.h"

namespace mntp::core {
namespace {

using test_support::least_squares;

TEST(LeastSquares, ExactLine) {
  const std::vector<double> xs{0, 1, 2, 3, 4};
  const std::vector<double> ys{1, 3, 5, 7, 9};  // y = 1 + 2x
  const auto fit = least_squares(xs, ys);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->slope, 2.0, 1e-12);
  EXPECT_NEAR(fit->intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit->predict(10.0), 21.0, 1e-10);
  EXPECT_NEAR(fit->residual(10.0, 22.0), 1.0, 1e-10);
}

TEST(LeastSquares, Underdetermined) {
  EXPECT_FALSE(least_squares({}, {}).has_value());
  EXPECT_FALSE(least_squares(std::vector<double>{1.0},
                             std::vector<double>{2.0}).has_value());
  EXPECT_FALSE(least_squares(std::vector<double>{1.0, 2.0},
                             std::vector<double>{2.0}).has_value());  // mismatch
}

TEST(LeastSquares, VerticalLineRejected) {
  const std::vector<double> xs{3, 3, 3};
  const std::vector<double> ys{1, 2, 3};
  EXPECT_FALSE(least_squares(xs, ys).has_value());
}

TEST(LeastSquares, ConstantYHasUnitR2) {
  const std::vector<double> xs{0, 1, 2, 3};
  const std::vector<double> ys{5, 5, 5, 5};
  const auto fit = least_squares(xs, ys);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->slope, 0.0, 1e-12);
  EXPECT_NEAR(fit->intercept, 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(fit->r_squared, 1.0);
}

TEST(LeastSquares, NoisyLineRecoversSlope) {
  Rng rng(21);
  std::vector<double> xs, ys;
  for (int i = 0; i < 500; ++i) {
    xs.push_back(i);
    ys.push_back(0.5 + 0.03 * i + rng.normal(0.0, 0.1));
  }
  const auto fit = least_squares(xs, ys);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->slope, 0.03, 2e-3);
  EXPECT_GT(fit->r_squared, 0.9);
}

TEST(IncrementalLinReg, MatchesBatch) {
  Rng rng(8);
  IncrementalLinReg acc;
  std::vector<double> xs, ys;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(0, 1000);
    const double y = 3.0 - 0.2 * x + rng.normal(0, 1);
    xs.push_back(x);
    ys.push_back(y);
    acc.add(x, y);
  }
  const auto batch = least_squares(xs, ys);
  const auto inc = acc.fit();
  ASSERT_TRUE(batch && inc);
  EXPECT_NEAR(inc->slope, batch->slope, 1e-9);
  EXPECT_NEAR(inc->intercept, batch->intercept, 1e-6);
  EXPECT_NEAR(inc->r_squared, batch->r_squared, 1e-9);
}

TEST(IncrementalLinReg, ResetClears) {
  IncrementalLinReg acc;
  acc.add(0, 1);
  acc.add(1, 2);
  acc.reset();
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_FALSE(acc.fit().has_value());
}

TEST(IncrementalLinReg, PredictConvenience) {
  IncrementalLinReg acc;
  EXPECT_FALSE(acc.fit().has_value());
  acc.add(0, 0);
  acc.add(2, 4);
  const auto fit = acc.fit();
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->predict(3.0), 6.0, 1e-9);
}

TEST(IncrementalLinReg, LargeXOffsetsAreStable) {
  // Nanosecond-scale x values with microsecond spacing: catastrophic
  // cancellation territory without centering.
  IncrementalLinReg acc;
  const double x0 = 3.6e12;  // ~an hour in ns
  for (int i = 0; i < 50; ++i) {
    acc.add(x0 + i * 5e9, 0.001 * i);  // slope 0.001 per 5e9 = 2e-13
  }
  const auto fit = acc.fit();
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->slope, 2e-13, 1e-17);
}

// Property: fitting y = a + b*x recovers (a, b) for random parameters.
class LinRegProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinRegProperty, RecoversRandomLine) {
  Rng rng(GetParam());
  const double a = rng.uniform(-100, 100);
  const double b = rng.uniform(-5, 5);
  IncrementalLinReg acc;
  for (int i = 0; i < 50; ++i) {
    const double x = rng.uniform(0, 100);
    acc.add(x, a + b * x);
  }
  const auto fit = acc.fit();
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->slope, b, 1e-8);
  EXPECT_NEAR(fit->intercept, a, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinRegProperty,
                         ::testing::Values(10, 20, 30, 40, 50, 60));

}  // namespace
}  // namespace mntp::core
