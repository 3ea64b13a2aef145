#include "core/linreg.h"

#include <algorithm>
#include <cmath>

namespace mntp::core {

void IncrementalLinReg::add(double x, double y) {
  if (!have_origin_) {
    x0_ = x;
    have_origin_ = true;
  }
  const double cx = x - x0_;
  ++n_;
  sx_ += cx;
  sy_ += y;
  sxx_ += cx * cx;
  sxy_ += cx * y;
  syy_ += y * y;
}

void IncrementalLinReg::reset() {
  n_ = 0;
  have_origin_ = false;
  x0_ = sx_ = sy_ = sxx_ = sxy_ = syy_ = 0.0;
}

std::optional<LinearFit> IncrementalLinReg::fit() const {
  if (n_ < 2) return std::nullopt;
  const auto n = static_cast<double>(n_);
  const double denom = n * sxx_ - sx_ * sx_;
  // All x values coincide: the slope is undefined.
  if (std::fabs(denom) < 1e-12 * std::max(1.0, n * sxx_)) return std::nullopt;

  LinearFit f;
  f.count = n_;
  f.slope = (n * sxy_ - sx_ * sy_) / denom;
  // Intercept in centered coordinates, then shift back to absolute x.
  const double centered_intercept = (sy_ - f.slope * sx_) / n;
  f.intercept = centered_intercept - f.slope * x0_;

  const double ss_tot = syy_ - sy_ * sy_ / n;
  if (ss_tot <= 1e-12 * std::max(1.0, syy_)) {
    f.r_squared = 1.0;  // constant y: the fit is exact
  } else {
    const double ss_reg = f.slope * (sxy_ - sx_ * sy_ / n);
    f.r_squared = std::clamp(ss_reg / ss_tot, 0.0, 1.0);
  }
  return f;
}

}  // namespace mntp::core
