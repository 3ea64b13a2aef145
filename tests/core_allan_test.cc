#include "support/allan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.h"
#include "sim/clock_model.h"

namespace mntp::test_support {
namespace {

using core::Rng;

TEST(Allan, DegenerateInputsReturnZero) {
  const std::vector<double> tiny{1.0, 2.0};
  EXPECT_EQ(allan_deviation_at(tiny, 1.0, 1), 0.0);
  EXPECT_EQ(allan_deviation_at({}, 1.0, 1), 0.0);
  const std::vector<double> some{1, 2, 3, 4, 5};
  EXPECT_EQ(allan_deviation_at(some, 0.0, 1), 0.0);  // bad tau0
  EXPECT_EQ(allan_deviation_at(some, 1.0, 0), 0.0);  // bad m
}

TEST(Allan, LinearPhaseHasZeroDeviation) {
  // A constant frequency offset (linear phase ramp) is invisible to ADEV:
  // the second difference annihilates it.
  std::vector<double> phase;
  for (int i = 0; i < 1000; ++i) phase.push_back(1e-6 * i);  // 1 ppm ramp
  for (std::size_t m : {1u, 4u, 16u}) {
    EXPECT_NEAR(allan_deviation_at(phase, 1.0, m), 0.0, 1e-15);
  }
}

TEST(Allan, WhitePhaseNoiseKnownValueAndSlope) {
  // White PM of variance sigma^2: ADEV(tau0, m=1) = sqrt(3) * sigma / tau
  // and the sigma-tau slope is -1.
  Rng rng(1);
  const double sigma = 1e-6;
  std::vector<double> phase;
  for (int i = 0; i < 200000; ++i) phase.push_back(rng.normal(0.0, sigma));
  const double adev1 = allan_deviation_at(phase, 1.0, 1);
  EXPECT_NEAR(adev1, std::sqrt(3.0) * sigma, 0.05 * adev1);
  const auto curve = allan_deviation(phase, 1.0);
  EXPECT_NEAR(sigma_tau_slope(curve), -1.0, 0.1);
}

TEST(Allan, WhiteFrequencyNoiseSlope) {
  // White FM (random-walk phase): slope -1/2.
  Rng rng(2);
  std::vector<double> phase;
  double x = 0.0;
  for (int i = 0; i < 200000; ++i) {
    x += rng.normal(0.0, 1e-8);
    phase.push_back(x);
  }
  const auto curve = allan_deviation(phase, 1.0);
  EXPECT_NEAR(sigma_tau_slope(curve), -0.5, 0.12);
}

TEST(Allan, RandomWalkFrequencySlope) {
  // RW FM (random-walk frequency, doubly integrated): slope +1/2.
  Rng rng(3);
  std::vector<double> phase;
  double freq = 0.0, x = 0.0;
  for (int i = 0; i < 100000; ++i) {
    freq += rng.normal(0.0, 1e-10);
    x += freq;
    phase.push_back(x);
  }
  const auto curve = allan_deviation(phase, 1.0);
  EXPECT_NEAR(sigma_tau_slope(curve), 0.5, 0.25);
}

TEST(Allan, CurveUsesOctaveSpacedTaus) {
  std::vector<double> phase(1000, 0.0);
  const auto curve = allan_deviation(phase, 2.0);
  ASSERT_GE(curve.size(), 8u);
  EXPECT_DOUBLE_EQ(curve[0].first, 2.0);
  EXPECT_DOUBLE_EQ(curve[1].first, 4.0);
  EXPECT_DOUBLE_EQ(curve[2].first, 8.0);
}

TEST(Allan, OscillatorModelShowsWanderAtLongTau) {
  // The library's oscillator, read noise-free: its frequency wander is a
  // random walk at every tau this run spans, so the sigma-tau curve
  // rises with the RW FM slope of +1/2 out to the longest tau.
  sim::OscillatorParams p;
  p.constant_skew_ppm = -5.5;       // invisible to ADEV
  p.wander_ppm_per_sqrt_s = 0.05;
  sim::OscillatorModel osc(p, Rng(4));
  std::vector<double> phase;
  for (int i = 0; i < 20000; ++i) {
    phase.push_back(osc.offset_at(
        core::TimePoint::epoch() + core::Duration::seconds(i)));
  }
  const auto curve = allan_deviation(phase, 1.0);
  ASSERT_GE(curve.size(), 10u);
  EXPECT_NEAR(sigma_tau_slope(curve), 0.5, 0.25);
  const double mid = curve[curve.size() / 2].second;
  EXPECT_GT(mid, 2.0 * curve[0].second);
  EXPECT_GT(curve.back().second, 2.0 * mid);
}

}  // namespace
}  // namespace mntp::test_support
