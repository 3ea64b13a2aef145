#include "support/least_squares.h"

namespace mntp::test_support {

std::optional<core::LinearFit> least_squares(std::span<const double> xs,
                                             std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return std::nullopt;
  const auto n = static_cast<double>(xs.size());
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= n;
  my /= n;
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) return std::nullopt;
  core::LinearFit f;
  f.count = xs.size();
  f.slope = sxy / sxx;
  f.intercept = my - f.slope * mx;
  f.r_squared = syy == 0.0 ? 1.0 : sxy * sxy / (sxx * syy);
  return f;
}

}  // namespace mntp::test_support
