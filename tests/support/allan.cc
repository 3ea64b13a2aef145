#include "support/allan.h"

#include <cmath>

namespace mntp::test_support {

double allan_deviation_at(std::span<const double> phase_s, double tau0_s,
                          std::size_t m) {
  const std::size_t n = phase_s.size();
  if (m < 1 || n <= 2 * m || tau0_s <= 0.0) return 0.0;
  const double tau = static_cast<double>(m) * tau0_s;
  double acc = 0.0;
  const std::size_t terms = n - 2 * m;
  for (std::size_t i = 0; i < terms; ++i) {
    const double d = phase_s[i + 2 * m] - 2.0 * phase_s[i + m] + phase_s[i];
    acc += d * d;
  }
  return std::sqrt(acc / (2.0 * tau * tau * static_cast<double>(terms)));
}

std::vector<std::pair<double, double>> allan_deviation(
    std::span<const double> phase_s, double tau0_s) {
  std::vector<std::pair<double, double>> curve;
  for (std::size_t m = 1; 2 * m < phase_s.size(); m *= 2) {
    curve.emplace_back(static_cast<double>(m) * tau0_s,
                       allan_deviation_at(phase_s, tau0_s, m));
  }
  return curve;
}

double sigma_tau_slope(const std::vector<std::pair<double, double>>& curve) {
  if (curve.size() < 2) return 0.0;
  const auto& [tau0, s0] = curve.front();
  const auto& [tau1, s1] = curve.back();
  if (s0 <= 0.0 || s1 <= 0.0 || tau1 <= tau0) return 0.0;
  return std::log(s1 / s0) / std::log(tau1 / tau0);
}

}  // namespace mntp::test_support
