// The one Ornstein–Uhlenbeck integrator, for every slow Gaussian process:
// channel shadowing and noise wander (net::WirelessChannel,
// fleet::Simulator) and oscillator frequency wander (OscillatorModel).
// `sigma` is the stationary sd and `tau_s` the relaxation time. Both
// transitions are exact at any gap h, so a process's law does not depend
// on how often it is read; with a = e^{-h/tau}:
//   * ou_advance: X' = a X + sigma sqrt(1 - a^2) N(0,1), one normal.
//   * ou_advance_integrated: X' and I = int X over the gap, jointly
//     Gaussian with E[I] = tau (1-a) X, Var(I) = sigma^2 tau^2 (2h/tau - 3
//     + 4a - a^2) and Cov(X', I) = sigma^2 tau (1-a)^2; two normals.
//     Coefficients come from expm1, since 1 - a cancels to noise at
//     h/tau ~ 1e-7 (a 50 ms gap, tau of days); Var(I) ~ (2/3)(h/tau)^3
//     cancels even then, so below h/tau = 1e-2 it is a Taylor series.
// Neither draws at h = 0. G is any generator with `normal(mean, sd)`.
#pragma once

#include <cmath>

namespace mntp::sim {

template <class G>
[[nodiscard]] double ou_advance(double x, double gap_s, double sigma,
                                double tau_s, G& gen) {
  if (gap_s <= 0.0) return x;
  const double decay = std::exp(-gap_s / tau_s);
  return decay * x +
         sigma * std::sqrt(1.0 - decay * decay) * gen.normal(0.0, 1.0);
}

/// Var(I) / (sigma tau)^2 at r = h/tau, with em = expm1(-r) = a - 1.
[[nodiscard]] inline double ou_integral_variance_factor(double r, double em) {
  if (r >= 1e-2) return 2.0 * r + em * (2.0 - em);
  // sum_{n>=3} (-1)^n (4 - 2^n) r^n / n!, truncated below 2e-15 relative.
  return r * r * r *
         (2.0 / 3.0 + r * (-1.0 / 2.0 + r * (7.0 / 30.0 + r * (-1.0 / 12.0 +
          r * (31.0 / 1260.0 - r / 160.0)))));
}

struct OuStep {
  double x = 0.0;         // the process at the end of the gap
  double integral = 0.0;  // its integral over the gap
};

template <class G>
[[nodiscard]] OuStep ou_advance_integrated(double x, double gap_s,
                                           double sigma, double tau_s,
                                           G& gen) {
  if (gap_s <= 0.0) return {x, 0.0};
  const double r = gap_s / tau_s;
  const double em = std::expm1(-r);  // a - 1
  const double sd_x = std::sqrt(-em * (2.0 + em));  // sqrt(1 - a^2)
  // I's loading on X's innovation, and its variance given X', per sigma tau.
  const double load = em * em / sd_x;
  const double cond_var = ou_integral_variance_factor(r, em) - load * load;
  const double z_x = gen.normal(0.0, 1.0);
  const double z_i = gen.normal(0.0, 1.0);
  return {(1.0 + em) * x + sigma * sd_x * z_x,
          tau_s * (-em * x + sigma * (load * z_x +
                                      std::sqrt(std::fmax(cond_var, 0.0)) * z_i))};
}

}  // namespace mntp::sim
