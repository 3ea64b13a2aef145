// The one OU integrator (sim/ou.h): the joint transition of the process
// and its integral against its closed-form moments, from gaps a million
// times shorter than tau (where the naive coefficients cancel to noise)
// to gaps ten times longer, and its draw discipline.
#include "sim/ou.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"

namespace mntp::sim {
namespace {

/// Generator that returns 0 and counts its draws.
struct CountingGen {
  int normals = 0;
  double normal(double, double) {
    ++normals;
    return 0.0;
  }
};

/// 2r - 3 + 4e^{-r} - e^{-2r}, independently of ou.h: its Taylor series
/// in long double below r = 1/2, the direct form above.
long double integral_variance_factor(long double r) {
  if (r >= 0.5L) {
    return 2.0L * r - 3.0L + 4.0L * std::exp(-r) - std::exp(-2.0L * r);
  }
  // sum_{n>=3} (-1)^n (4 - 2^n) r^n / n!
  long double sum = 0.0L;
  long double rn_over_fact = r * r / 2.0L;  // r^2 / 2!
  long double two_n = 4.0L;                 // 2^2
  for (int n = 3; n < 30; ++n) {
    rn_over_fact *= r / n;
    two_n *= 2.0L;
    sum += (n % 2 == 0 ? 1.0L : -1.0L) * (4.0L - two_n) * rn_over_fact;
  }
  return sum;
}

TEST(OuIntegrated, JointMomentsMatchClosedFormsAtAnyGap) {
  // With a = e^{-h/tau}: E[x'] = a x, E[I] = tau (1-a) x,
  // Var(x') = s^2 (1-a^2), Var(I) = s^2 tau^2 (2h/tau - 3 + 4a - a^2),
  // Cov(x', I) = s^2 tau (1-a)^2. Each sample statistic must sit within
  // 5 standard errors of its closed form (two-sided alpha ~ 6e-7 each).
  const double sigma = 2.0;
  const double tau_s = 1e5;
  const double x0 = 1.3;
  const int n = 400'000;
  const double se = 1.0 / std::sqrt(static_cast<double>(n));
  for (const double r : {1e-7, 1e-3, 1.0, 10.0}) {
    const double gap_s = r * tau_s;
    const long double one_minus_a = -std::expm1(-static_cast<long double>(r));
    const long double a = 1.0L - one_minus_a;
    const double mean_x = static_cast<double>(a * x0);
    const double mean_i = static_cast<double>(tau_s * one_minus_a * x0);
    const double var_x =
        static_cast<double>(sigma * sigma * one_minus_a * (1.0L + a));
    const double var_i = static_cast<double>(
        sigma * sigma * tau_s * tau_s * integral_variance_factor(r));
    const double cov = static_cast<double>(sigma * sigma * tau_s *
                                           one_minus_a * one_minus_a);
    const double rho = cov / std::sqrt(var_x * var_i);

    core::Rng gen(17);
    double sx = 0.0, si = 0.0, sxx = 0.0, sii = 0.0, sxi = 0.0;
    for (int k = 0; k < n; ++k) {
      const OuStep s = ou_advance_integrated(x0, gap_s, sigma, tau_s, gen);
      // Residuals from the closed-form means, scaled to unit variance.
      const double dx = (s.x - mean_x) / std::sqrt(var_x);
      const double di = (s.integral - mean_i) / std::sqrt(var_i);
      sx += dx;
      si += di;
      sxx += dx * dx;
      sii += di * di;
      sxi += dx * di;
    }
    const double mx = sx / n, mi = si / n;
    const double vx = sxx / n - mx * mx, vi = sii / n - mi * mi;
    const double c = (sxi / n - mx * mi) / std::sqrt(vx * vi);
    EXPECT_NEAR(mx, 0.0, 5.0 * se) << "h/tau " << r;
    EXPECT_NEAR(mi, 0.0, 5.0 * se) << "h/tau " << r;
    EXPECT_NEAR(vx, 1.0, 5.0 * std::sqrt(2.0) * se) << "h/tau " << r;
    EXPECT_NEAR(vi, 1.0, 5.0 * std::sqrt(2.0) * se) << "h/tau " << r;
    EXPECT_NEAR(c, rho, 5.0 * (1.0 - rho * rho) * se) << "h/tau " << r;
  }
}

TEST(OuIntegrated, DrawsTwoNormalsPerGapAndNoneAtZeroGap) {
  CountingGen gen;
  const OuStep still = ou_advance_integrated(1.5, 0.0, 2.5, 25.0, gen);
  EXPECT_DOUBLE_EQ(still.x, 1.5);
  EXPECT_DOUBLE_EQ(still.integral, 0.0);
  EXPECT_EQ(gen.normals, 0);
  // With zero innovations the transition is the pure decay and its
  // integral, tau (1 - a) x.
  const OuStep moved = ou_advance_integrated(1.5, 25.0, 2.5, 25.0, gen);
  EXPECT_EQ(gen.normals, 2);
  EXPECT_DOUBLE_EQ(moved.x, 1.5 * std::exp(-1.0));
  EXPECT_DOUBLE_EQ(moved.integral, 25.0 * (1.0 - std::exp(-1.0)) * 1.5);
  (void)ou_advance_integrated(1.5, 1e-9, 2.5, 25.0, gen);
  EXPECT_EQ(gen.normals, 4);
}

}  // namespace
}  // namespace mntp::sim
