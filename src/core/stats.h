// Descriptive statistics used throughout the measurement pipeline:
// streaming moments (Welford), order statistics / percentile boxes,
// empirical CDFs and RMSE — the quantities the paper reports for every
// experiment (mean/stddev offsets, min-OWD medians, tuner RMSE).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace mntp::core {

/// Streaming mean/variance accumulator (Welford's algorithm).
/// Numerically stable; O(1) memory regardless of sample count.
class RunningStats {
 public:
  /// Add one observation.
  void add(double x);

  /// Merge another accumulator into this one (parallel-safe combination).
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance (divides by n). Zero when fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number-style summary plus moments, computed from a full sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // population
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  /// One-line rendering: "n=... mean=... sd=... min/med/max=...".
  [[nodiscard]] std::string to_string() const;
};

/// Compute a Summary over the sample. Copies and sorts internally.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Linear-interpolated percentile of a *sorted* sample; p in [0,100].
[[nodiscard]] double percentile_sorted(std::span<const double> sorted, double p);

/// Linear-interpolated percentile of an unsorted sample (copies + sorts).
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// Root mean square error of xs against a constant reference value
/// (the tuner measures offsets against a perfectly synchronized clock,
/// i.e. reference 0).
[[nodiscard]] double rmse(std::span<const double> xs, double reference = 0.0);

/// Mean of absolute values — the "average offset magnitude" the paper
/// quotes when comparing MNTP to SNTP.
[[nodiscard]] double mean_abs(std::span<const double> xs);

/// Maximum of absolute values.
[[nodiscard]] double max_abs(std::span<const double> xs);

/// Empirical cumulative distribution function over a sample.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::span<const double> xs);

  [[nodiscard]] bool empty() const { return sorted_.empty(); }
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }

  /// Fraction of samples <= x, in [0,1].
  [[nodiscard]] double at(double x) const;

  /// Inverse CDF: the q-quantile, q in [0,1].
  [[nodiscard]] double quantile(double q) const;

  /// Evaluate the CDF at `points` evenly spaced x values covering the
  /// sample range; returns (x, F(x)) pairs for plotting/printing. The
  /// last pair is exactly (max, 1).
  [[nodiscard]] std::vector<std::pair<double, double>> curve(std::size_t points) const;

  [[nodiscard]] const std::vector<double>& sorted_samples() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

}  // namespace mntp::core
