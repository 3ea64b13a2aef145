#include "core/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mntp::core {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

std::string Summary::to_string() const {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "n=%zu mean=%.3f sd=%.3f min=%.3f p25=%.3f med=%.3f p75=%.3f "
                "p90=%.3f p99=%.3f max=%.3f",
                count, mean, stddev, min, p25, median, p75, p90, p99, max);
  return buf;
}

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double idx = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double percentile(std::span<const double> xs, double p) {
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  return percentile_sorted(copy, p);
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  RunningStats rs;
  for (double x : sorted) rs.add(x);
  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = percentile_sorted(sorted, 25);
  s.median = percentile_sorted(sorted, 50);
  s.p75 = percentile_sorted(sorted, 75);
  s.p90 = percentile_sorted(sorted, 90);
  s.p99 = percentile_sorted(sorted, 99);
  return s;
}

double rmse(std::span<const double> xs, double reference) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) {
    const double e = x - reference;
    acc += e * e;
  }
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double mean_abs(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += std::fabs(x);
  return acc / static_cast<double>(xs.size());
}

double max_abs(std::span<const double> xs) {
  double m = 0.0;
  for (double x : xs) m = std::max(m, std::fabs(x));
  return m;
}

Cdf::Cdf(std::span<const double> xs) : sorted_(xs.begin(), xs.end()) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::at(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Cdf::quantile(double q) const {
  return percentile_sorted(sorted_, std::clamp(q, 0.0, 1.0) * 100.0);
}

std::vector<std::pair<double, double>> Cdf::curve(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (sorted_.empty() || points == 0) return out;
  const double lo = sorted_.front();
  const double hi = sorted_.back();
  const double step = points > 1 ? (hi - lo) / static_cast<double>(points - 1) : 0.0;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    // The last point is the maximum itself: lo + step * (points - 1) can
    // round below hi, and the curve would then end below 1.
    const double x = i + 1 == points ? hi : lo + step * static_cast<double>(i);
    out.emplace_back(x, at(x));
  }
  return out;
}

}  // namespace mntp::core
