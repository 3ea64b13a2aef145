#include "sim/clock_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/ou.h"

namespace mntp::sim {
namespace {

using core::Duration;
using core::Rng;
using core::TimePoint;

TimePoint at_s(double s) {
  return TimePoint::epoch() + Duration::from_seconds(s);
}

OscillatorParams pure_skew(double ppm) {
  OscillatorParams p;
  p.constant_skew_ppm = ppm;
  return p;
}

TEST(OscillatorModel, ConstantSkewIntegratesExactly) {
  OscillatorModel osc(pure_skew(10.0), Rng(1));
  // +10 ppm over 1000 s = +10 ms.
  EXPECT_NEAR(osc.offset_at(at_s(1000)) * 1e3, 10.0, 1e-6);
  EXPECT_NEAR(osc.offset_at(at_s(3600)) * 1e3, 36.0, 1e-6);
}

TEST(OscillatorModel, InitialOffsetRespected) {
  OscillatorParams p = pure_skew(0.0);
  p.initial_offset_s = 0.25;
  OscillatorModel osc(p, Rng(1));
  EXPECT_DOUBLE_EQ(osc.offset_at(TimePoint::epoch()), 0.25);
  EXPECT_DOUBLE_EQ(osc.offset_at(at_s(100)), 0.25);
}

TEST(OscillatorModel, NegativeSkewDriftsDown) {
  OscillatorModel osc(pure_skew(-5.5), Rng(1));
  EXPECT_NEAR(osc.offset_at(at_s(3600)) * 1e3, -19.8, 1e-3);
}

TEST(OscillatorModel, TimeBackwardsThrows) {
  OscillatorModel osc(pure_skew(0.0), Rng(1));
  (void)osc.offset_at(at_s(10));
  EXPECT_THROW((void)osc.offset_at(at_s(5)), std::logic_error);
}

TEST(OscillatorModel, TemperatureTermIsBoundedAndPeriodic) {
  OscillatorParams p = pure_skew(0.0);
  p.temp_amplitude_ppm = 2.0;
  const double period_s = 86400.0;  // the diurnal cycle
  OscillatorModel osc(p, Rng(1));
  // Integral of A*sin(2pi t/T) over a full period is zero: offset returns
  // near its starting value each period.
  const double at_full = osc.offset_at(at_s(period_s));
  EXPECT_NEAR(at_full * 1e3, 0.0, 0.05);
  // Peak drift rate occurs in the first half period; the offset at T/2 is
  // A*T/pi ppm-seconds = 2e-6 * 86400 / pi s ~ 55 ms.
  OscillatorModel osc2(p, Rng(1));
  EXPECT_NEAR(osc2.offset_at(at_s(period_s / 2)) * 1e3,
              2e-3 * period_s / M_PI, 0.05);
}

/// Stationary sd s of the wander at diffusion `ppm_per_sqrt_s`, in ppm.
double wander_sd_ppm(double ppm_per_sqrt_s) {
  return ppm_per_sqrt_s * std::sqrt(kWanderTau.to_seconds() / 2.0);
}

/// Var(integral of the wander over h) from a wander of 0, in (ppm s)^2:
/// s^2 tau^2 (2r - 3 + 4e^{-r} - e^{-2r}) at r = h/tau.
double wander_integral_variance(double ppm_per_sqrt_s, double h_s) {
  const double tau_s = kWanderTau.to_seconds();
  const double r = h_s / tau_s;
  const double s = wander_sd_ppm(ppm_per_sqrt_s);
  return s * s * tau_s * tau_s * ou_integral_variance_factor(r, std::expm1(-r));
}

TEST(OscillatorModel, WanderIsDeterministicPerSeed) {
  OscillatorParams p = pure_skew(0.0);
  p.wander_ppm_per_sqrt_s = 0.1;
  OscillatorModel a(p, Rng(7));
  OscillatorModel b(p, Rng(7));
  for (int i = 1; i <= 20; ++i) {
    ASSERT_DOUBLE_EQ(a.offset_at(at_s(i * 10)), b.offset_at(at_s(i * 10)));
  }
}

TEST(OscillatorModel, WanderStationarySdIsS) {
  // The OU's mean reversion bounds the wander: after 20 relaxation times
  // its sd is s = diffusion * sqrt(tau / 2), whatever the diffusion. The
  // wander is read as the slope of the offset over the next millisecond.
  const double diffusion = 0.05;
  const int n = 4000;
  const TimePoint settled = TimePoint::epoch() + kWanderTau * 20;
  const Duration h = Duration::milliseconds(1);
  double sum = 0.0, sum_sq = 0.0;
  for (int seed = 1; seed <= n; ++seed) {
    OscillatorParams p = pure_skew(0.0);
    p.wander_ppm_per_sqrt_s = diffusion;
    OscillatorModel osc(p, Rng(static_cast<std::uint64_t>(seed)));
    const double before = osc.offset_at(settled);
    const double wander_ppm =
        (osc.offset_at(settled + h) - before) / h.to_seconds() * 1e6;
    sum += wander_ppm;
    sum_sq += wander_ppm * wander_ppm;
  }
  const double s = wander_sd_ppm(diffusion);  // 27.5 ppm
  const double mean = sum / n;
  const double sd = std::sqrt(sum_sq / n - mean * mean);
  // 5 standard errors of the mean and of the sd.
  EXPECT_NEAR(mean, 0.0, 5.0 * s / std::sqrt(n));
  EXPECT_NEAR(sd, s, 5.0 * s / std::sqrt(2.0 * n));
}

TEST(OscillatorModel, FourHourOffsetLawIsTheSameAtAnyReadCadence) {
  // The testbed's oscillator (-5.5 ppm, 0.015 ppm/sqrt(s) wander, 0.8 ppm
  // diurnal term) read every 0.3 s, 5 s or 60 s for 4 h: the offset at
  // 4 h must follow one law, a normal whose mean is the skew and
  // temperature integral and whose variance is the wander integral's,
  // at every cadence. Per cadence, 400 seeds: a one-sample KS test
  // against that normal and a chi-square test of the variance, each at
  // alpha = 0.001.
  const double span_s = 4 * 3600.0;
  OscillatorParams p;
  p.constant_skew_ppm = -5.5;
  p.wander_ppm_per_sqrt_s = 0.015;
  p.temp_amplitude_ppm = 0.8;
  const double omega = 2.0 * M_PI / kTempPeriod.to_seconds();
  const double mean_s =
      1e-6 * (p.constant_skew_ppm * span_s +
              p.temp_amplitude_ppm / omega * (1.0 - std::cos(omega * span_s)));
  const double sd_s =
      1e-6 * std::sqrt(wander_integral_variance(p.wander_ppm_per_sqrt_s, span_s));
  ASSERT_NEAR(sd_s * 1e3, 14.83, 0.01);  // the random walk's 14.97 ms, to 1%

  const int n = 400;
  const double ks_critical = 1.949 / std::sqrt(n);  // alpha = 0.001
  const double chi_band = 3.29 * std::sqrt(2.0 / (n - 1));  // two-sided 0.001
  const TimePoint end = at_s(span_s);
  for (const double cadence_s : {0.3, 5.0, 60.0}) {
    const Duration cadence = Duration::from_seconds(cadence_s);
    std::vector<double> z;
    double sum_sq = 0.0;
    for (int seed = 1; seed <= n; ++seed) {
      OscillatorModel osc(p, Rng(static_cast<std::uint64_t>(seed)));
      for (TimePoint t = TimePoint::epoch() + cadence; t < end; t = t + cadence) {
        (void)osc.offset_at(t);
      }
      z.push_back((osc.offset_at(end) - mean_s) / sd_s);
      sum_sq += z.back() * z.back();
    }
    std::sort(z.begin(), z.end());
    double d = 0.0;
    for (int i = 0; i < n; ++i) {
      const double cdf = 0.5 * std::erfc(-z[i] / std::sqrt(2.0));
      d = std::max({d, cdf - static_cast<double>(i) / n,
                    static_cast<double>(i + 1) / n - cdf});
    }
    EXPECT_LT(d, ks_critical) << "cadence " << cadence_s << " s";
    EXPECT_NEAR(sum_sq / n, 1.0, chi_band)
        << "cadence " << cadence_s << " s: rms "
        << std::sqrt(sum_sq / n) * sd_s * 1e3 << " ms";
  }
}

TEST(OscillatorModel, ReadsDrawOnlyTheJointTransition) {
  // A read at a gap > 0 takes the joint OU transition's two normals and
  // nothing else; a read at a gap of 0 draws nothing.
  OscillatorParams p = pure_skew(0.0);
  p.wander_ppm_per_sqrt_s = 0.1;
  OscillatorModel osc(p, Rng(7));
  Rng gen(7);
  const double s = wander_sd_ppm(p.wander_ppm_per_sqrt_s);
  const double tau_s = kWanderTau.to_seconds();
  const OuStep first = ou_advance_integrated(0.0, 10.0, s, tau_s, gen);
  EXPECT_DOUBLE_EQ(osc.offset_at(at_s(10)), first.integral * 1e-6);
  EXPECT_DOUBLE_EQ(osc.offset_at(at_s(10)), first.integral * 1e-6);
  const OuStep second = ou_advance_integrated(first.x, 15.0, s, tau_s, gen);
  EXPECT_DOUBLE_EQ(osc.offset_at(at_s(25)),
                   first.integral * 1e-6 + second.integral * 1e-6);
}

TEST(DisciplinedClock, StepShiftsPhase) {
  DisciplinedClock c(pure_skew(0.0), Rng(1));
  EXPECT_DOUBLE_EQ(c.offset_at(at_s(1)), 0.0);
  c.step(Duration::milliseconds(50));
  EXPECT_NEAR(c.offset_at(at_s(2)), 0.05, 1e-12);
  c.step(Duration::milliseconds(-20));
  EXPECT_NEAR(c.offset_at(at_s(3)), 0.03, 1e-12);
}

TEST(DisciplinedClock, FrequencyCompensationIntegrates) {
  DisciplinedClock c(pure_skew(0.0), Rng(1));
  (void)c.offset_at(at_s(0));
  c.set_frequency_compensation(at_s(0), 10.0);  // +10 ppm
  EXPECT_NEAR(c.offset_at(at_s(100)) * 1e3, 1.0, 1e-9);  // +1 ms per 100 s
  c.set_frequency_compensation(at_s(100), -10.0);
  EXPECT_NEAR(c.offset_at(at_s(200)) * 1e3, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(c.frequency_compensation_ppm(), -10.0);
}

TEST(DisciplinedClock, CompensationCancelsSkew) {
  DisciplinedClock c(pure_skew(-8.0), Rng(1));
  (void)c.offset_at(at_s(0));
  c.set_frequency_compensation(at_s(0), 8.0);
  EXPECT_NEAR(c.offset_at(at_s(1000)) * 1e3, 0.0, 1e-6);
}

TEST(DisciplinedClock, LocalTimeMatchesOffset) {
  DisciplinedClock c(pure_skew(5.0), Rng(1));
  c.step(Duration::milliseconds(10));
  const TimePoint t = at_s(100);
  EXPECT_NEAR((c.local_time(t) - t).to_seconds(), c.offset_at(t), 1e-12);
}

}  // namespace
}  // namespace mntp::sim
