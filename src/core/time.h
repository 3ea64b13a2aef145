// Core time primitives for the mntp library.
//
// All simulated time in this codebase is expressed as signed 64-bit
// nanosecond counts. `Duration` is a span of time; `TimePoint` is an
// instant measured from the simulation epoch (t = 0 at simulation start).
// Wall-clock time is never consulted anywhere in the library: experiments
// are fully deterministic functions of their RNG seeds.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>

namespace mntp::core {

/// A span of time with nanosecond resolution. Value type; cheap to copy.
class Duration {
 public:
  constexpr Duration() = default;

  /// Named constructors. Prefer these over the raw-tick constructor.
  static constexpr Duration nanoseconds(std::int64_t ns) { return Duration{ns}; }
  static constexpr Duration microseconds(std::int64_t us) { return Duration{us * 1000}; }
  static constexpr Duration milliseconds(std::int64_t ms) { return Duration{ms * 1'000'000}; }
  static constexpr Duration seconds(std::int64_t s) { return Duration{s * 1'000'000'000}; }
  static constexpr Duration minutes(std::int64_t m) { return Duration{m * 60'000'000'000}; }
  static constexpr Duration hours(std::int64_t h) { return Duration{h * 3'600'000'000'000}; }

  /// Construct from a floating-point second count (rounds to nearest ns).
  static constexpr Duration from_seconds(double s) {
    return Duration{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
  }
  /// Construct from a floating-point millisecond count.
  static constexpr Duration from_millis(double ms) { return from_seconds(ms * 1e-3); }

  static constexpr Duration zero() { return Duration{0}; }
  static constexpr Duration max() { return Duration{std::numeric_limits<std::int64_t>::max()}; }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }
  [[nodiscard]] constexpr double to_millis() const { return static_cast<double>(ns_) * 1e-6; }
  [[nodiscard]] constexpr double to_micros() const { return static_cast<double>(ns_) * 1e-3; }

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration operator+(Duration o) const { return Duration{ns_ + o.ns_}; }
  constexpr Duration operator-(Duration o) const { return Duration{ns_ - o.ns_}; }
  constexpr Duration operator-() const { return Duration{-ns_}; }
  constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  constexpr Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }
  constexpr Duration operator*(std::int64_t k) const { return Duration{ns_ * k}; }
  constexpr Duration operator/(std::int64_t k) const { return Duration{ns_ / k}; }
  constexpr double operator/(Duration o) const {
    return static_cast<double>(ns_) / static_cast<double>(o.ns_);
  }

  /// Scale by a floating-point factor (rounds toward nearest).
  [[nodiscard]] constexpr Duration scaled(double f) const {
    const double v = static_cast<double>(ns_) * f;
    return Duration{static_cast<std::int64_t>(v + (v >= 0 ? 0.5 : -0.5))};
  }

  [[nodiscard]] constexpr Duration abs() const { return ns_ < 0 ? Duration{-ns_} : *this; }

 private:
  explicit constexpr Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// An instant on the simulation timeline, measured from the simulation epoch.
class TimePoint {
 public:
  constexpr TimePoint() = default;

  static constexpr TimePoint epoch() { return TimePoint{}; }
  static constexpr TimePoint from_ns(std::int64_t ns) { return TimePoint{ns}; }
  static constexpr TimePoint max() {
    return TimePoint{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }

  constexpr auto operator<=>(const TimePoint&) const = default;

  constexpr TimePoint operator+(Duration d) const { return TimePoint{ns_ + d.ns()}; }
  constexpr TimePoint operator-(Duration d) const { return TimePoint{ns_ - d.ns()}; }
  constexpr Duration operator-(TimePoint o) const { return Duration::nanoseconds(ns_ - o.ns_); }
  constexpr TimePoint& operator+=(Duration d) { ns_ += d.ns(); return *this; }

 private:
  explicit constexpr TimePoint(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

}  // namespace mntp::core
