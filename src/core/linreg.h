// Least-squares linear regression.
//
// MNTP's drift estimator fits a first-degree polynomial (a trend line)
// through (time, offset) samples, extrapolates it to predict the next
// offset, and accepts/rejects samples by their squared error against that
// prediction (paper §4.2, Algorithm 1 `estimateDrift`). The incremental
// form supports the §5.3 refinement of re-estimating drift on every new
// accepted sample without refitting from scratch.
#pragma once

#include <cstddef>
#include <optional>

namespace mntp::core {

/// Result of a linear fit y = intercept + slope * x.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0,1]; 1 for a perfect fit.
  /// Defined as 1 when the y values are constant.
  double r_squared = 1.0;
  std::size_t count = 0;

  /// Predicted y at x.
  [[nodiscard]] double predict(double x) const { return intercept + slope * x; }
  /// Residual of an observation against the fit.
  [[nodiscard]] double residual(double x, double y) const { return y - predict(x); }
};

/// Incremental least-squares accumulator: O(1) add and O(1) fit.
///
/// Internally keeps sums centered on the first x value to avoid
/// catastrophic cancellation when x values are large (nanosecond
/// timestamps) and closely spaced.
class IncrementalLinReg {
 public:
  /// Add an (x, y) observation.
  void add(double x, double y);

  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }

  /// Current fit, or nullopt when underdetermined.
  [[nodiscard]] std::optional<LinearFit> fit() const;

 private:
  std::size_t n_ = 0;
  double x0_ = 0.0;  // centering origin, fixed at the first added x
  bool have_origin_ = false;
  double sx_ = 0.0;
  double sy_ = 0.0;
  double sxx_ = 0.0;
  double sxy_ = 0.0;
  double syy_ = 0.0;
};

}  // namespace mntp::core
