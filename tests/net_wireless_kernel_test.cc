// The stateless per-link kernel behind net::WirelessChannel and
// fleet::Simulator: the law of the exact OU transition they advance
// shadowing with (sim/ou.h) at any query spacing, the failure curve, and
// the MAC loop's draw discipline — checked with core::Rng, the one
// generator both callers use.
#include "net/wireless_kernel.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "sim/ou.h"

namespace mntp::net {
namespace {

namespace kernel = wireless_kernel;

/// Generator that answers from fixed values and counts every draw.
struct CountingGen {
  bool fail = true;  // bernoulli outcome
  int normals = 0;
  int bernoullis = 0;
  int exponentials = 0;
  double normal(double, double) {
    ++normals;
    return 0.0;
  }
  bool bernoulli(double) {
    ++bernoullis;
    return fail;
  }
  double exponential(double mean) {
    ++exponentials;
    return mean;
  }
};

struct OuMoments {
  double mean = 0.0;
  double sd = 0.0;
  double lag1 = 0.0;
};

/// Samples one OU path at a fixed spacing, started from the stationary
/// law, and returns its mean, stddev and lag-1 autocorrelation.
OuMoments sample_ou(double spacing_s, double sigma, double tau_s, int n,
                    core::Rng gen) {
  double x = gen.normal(0.0, sigma);
  double sum = 0.0, sum_sq = 0.0, sum_lag = 0.0;
  for (int i = 0; i < n; ++i) {
    const double next = sim::ou_advance(x, spacing_s, sigma, tau_s, gen);
    sum += next;
    sum_sq += next * next;
    sum_lag += x * next;
    x = next;
  }
  OuMoments m;
  m.mean = sum / n;
  const double var = sum_sq / n - m.mean * m.mean;
  m.sd = std::sqrt(var);
  m.lag1 = (sum_lag / n - m.mean * m.mean) / var;
  return m;
}

TEST(WirelessKernel, OuStationaryLawAtAnyQuerySpacing) {
  // The exact transition has the same stationary law and the same lag
  // correlation e^{-g/tau} whether the link is queried every 50 ms or
  // every 30 s: no result depends on an integration step. One million
  // steps span >= 2000 tau even at the finest spacing.
  const double sigma = 2.5;
  const double tau_s = 25.0;
  const int n = 1'000'000;
  for (const double spacing_s : {0.05, 1.0, 30.0}) {
    const double lag1 = std::exp(-spacing_s / tau_s);
    const OuMoments m = sample_ou(spacing_s, sigma, tau_s, n, core::Rng(32));
    EXPECT_NEAR(m.mean, 0.0, 0.3) << "spacing " << spacing_s;
    EXPECT_NEAR(m.sd, sigma, 0.15) << "spacing " << spacing_s;
    EXPECT_NEAR(m.lag1, lag1, 0.01) << "spacing " << spacing_s;
  }
}

TEST(WirelessKernel, OuAdvanceDrawsOncePerGapAndNeverAtZeroGap) {
  CountingGen gen;
  EXPECT_DOUBLE_EQ(sim::ou_advance(1.5, 0.0, 2.5, 25.0, gen), 1.5);
  EXPECT_EQ(gen.normals, 0);
  // With a zero innovation the transition is the pure decay.
  EXPECT_DOUBLE_EQ(sim::ou_advance(1.5, 25.0, 2.5, 25.0, gen),
                   1.5 * std::exp(-1.0));
  EXPECT_EQ(gen.normals, 1);
}

TEST(WirelessKernel, AttemptFailureIsLogisticPlusCollision) {
  const double snr50 = 8.0;
  const double slope = 2.2;
  EXPECT_DOUBLE_EQ(kernel::snr_failure_probability(snr50, snr50, slope), 0.5);
  const double snr = snr50 + 1.7;
  const double p_snr = kernel::snr_failure_probability(snr, snr50, slope);
  EXPECT_DOUBLE_EQ(p_snr, 1.0 / (1.0 + std::exp((snr - snr50) / slope)));
  EXPECT_DOUBLE_EQ(kernel::attempt_failure_probability(p_snr, 0.0), p_snr);
  EXPECT_DOUBLE_EQ(kernel::attempt_failure_probability(p_snr, 1.0), 1.0);
  EXPECT_NEAR(kernel::attempt_failure_probability(0.2, 0.25), 0.4, 1e-15);
}

TEST(WirelessKernel, MacBackoffGrowsWithTheAttemptNumber) {
  // Every attempt fails and exponential() returns its mean, so the
  // backoff is mean * (1 + 2 + ... + max_retries).
  CountingGen gen;
  const kernel::MacResult r = kernel::mac_transmit(1.0, 3, 5.0, gen);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.retries, 3);
  EXPECT_DOUBLE_EQ(r.backoff, 5.0 * (1 + 2 + 3));
  gen.fail = false;
  const kernel::MacResult ok = kernel::mac_transmit(0.0, 3, 5.0, gen);
  EXPECT_TRUE(ok.delivered);
  EXPECT_EQ(ok.retries, 0);
  EXPECT_DOUBLE_EQ(ok.backoff, 0.0);
}

TEST(WirelessKernel, DropConsumesNoBackoffDraw) {
  // Regression: the final failed attempt used to draw an exponential
  // backoff for a retry that never happens, silently shifting the RNG
  // stream of every event after a drop. A drop after k+1 attempts takes
  // k+1 bernoullis and exactly k backoffs.
  for (const int max_retries : {0, 1, 6}) {
    CountingGen gen;
    ASSERT_FALSE(kernel::mac_transmit(1.0, max_retries, 5.0, gen).delivered);
    EXPECT_EQ(gen.bernoullis, max_retries + 1);
    EXPECT_EQ(gen.exponentials, max_retries);
  }
  // So with no retries a drop consumes exactly what a clean delivery
  // does, and two generators sharing a seed stay in lockstep.
  core::Rng dropped(21);
  core::Rng delivered(21);
  ASSERT_FALSE(kernel::mac_transmit(1.0, 0, 5.0, dropped).delivered);
  ASSERT_TRUE(kernel::mac_transmit(0.0, 0, 5.0, delivered).delivered);
  for (int i = 0; i < 20; ++i) {
    ASSERT_DOUBLE_EQ(dropped.exponential(1.0), delivered.exponential(1.0));
  }
}

}  // namespace
}  // namespace mntp::net
