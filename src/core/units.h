// Strong types for radio-level quantities.
//
// MNTP's channel gate compares RSSI (dBm), noise floor (dBm) and the SNR
// margin (dB). Mixing those up is exactly the kind of bug a strong type
// prevents, so they are distinct value types rather than bare doubles.
#pragma once

#include <compare>

namespace mntp::core {

/// Relative power ratio in decibels (e.g. an SNR margin).
class Decibels {
 public:
  constexpr Decibels() = default;
  explicit constexpr Decibels(double db) : db_(db) {}

  [[nodiscard]] constexpr double value() const { return db_; }
  constexpr auto operator<=>(const Decibels&) const = default;

  constexpr Decibels operator+(Decibels o) const { return Decibels{db_ + o.db_}; }
  constexpr Decibels operator-(Decibels o) const { return Decibels{db_ - o.db_}; }

 private:
  double db_ = 0.0;
};

/// Absolute power level in dBm (decibels relative to one milliwatt), the
/// unit wireless adaptors report RSSI and noise in.
class Dbm {
 public:
  constexpr Dbm() = default;
  explicit constexpr Dbm(double dbm) : dbm_(dbm) {}

  [[nodiscard]] constexpr double value() const { return dbm_; }
  constexpr auto operator<=>(const Dbm&) const = default;

  /// A power difference between two absolute levels is a ratio in dB.
  constexpr Decibels operator-(Dbm o) const { return Decibels{dbm_ - o.dbm_}; }
  /// Shifting an absolute level by a ratio yields an absolute level.
  constexpr Dbm operator+(Decibels d) const { return Dbm{dbm_ + d.value()}; }
  constexpr Dbm operator-(Decibels d) const { return Dbm{dbm_ - d.value()}; }

 private:
  double dbm_ = 0.0;
};

inline constexpr Decibels operator""_dB(long double v) {
  return Decibels{static_cast<double>(v)};
}
inline constexpr Dbm operator""_dBm(long double v) {
  return Dbm{static_cast<double>(v)};
}
inline constexpr Decibels operator""_dB(unsigned long long v) {
  return Decibels{static_cast<double>(v)};
}
inline constexpr Dbm operator""_dBm(unsigned long long v) {
  return Dbm{static_cast<double>(v)};
}

}  // namespace mntp::core
