// NTP on-the-wire time formats (RFC 5905 §6).
//
// NTP represents time in two fixed-point formats:
//  * the 64-bit *timestamp* format: 32 bits of seconds since the NTP era
//    epoch (1900-01-01) and 32 bits of fractional second (~232 ps units);
//  * the 32-bit *short* format: 16-bit seconds, 16-bit fraction (~15 us),
//    used for root delay / root dispersion.
//
// The simulation maps its internal `TimePoint` (ns since simulation epoch)
// onto the NTP era by adding a fixed epoch offset, so wire packets carry
// genuine NTP timestamps and all conversions are exercised end-to-end.
#pragma once

#include <cstdint>
#include <compare>

#include "core/time.h"

namespace mntp::core {

/// Seconds between the NTP epoch (1900-01-01) and the simulation epoch.
/// Chosen to place simulations mid-era (year ~2016, matching the paper).
inline constexpr std::uint64_t kSimEpochNtpSeconds = 3'673'000'000ULL;

/// 64-bit NTP timestamp format: 32.32 fixed point seconds since 1900.
class NtpTimestamp {
 public:
  constexpr NtpTimestamp() = default;

  /// Construct from the raw 64-bit wire representation
  /// (seconds in the high 32 bits, fraction in the low 32 bits).
  static constexpr NtpTimestamp from_raw(std::uint64_t raw) { return NtpTimestamp{raw}; }

  /// Construct from explicit seconds/fraction fields.
  static constexpr NtpTimestamp from_parts(std::uint32_t seconds, std::uint32_t fraction) {
    return NtpTimestamp{(static_cast<std::uint64_t>(seconds) << 32) | fraction};
  }

  /// Convert a simulation instant into an NTP timestamp.
  static NtpTimestamp from_time_point(TimePoint t);

  /// The zero timestamp, which RFC 5905 defines as "unknown/unsynchronized".
  static constexpr NtpTimestamp unset() { return NtpTimestamp{0}; }

  [[nodiscard]] constexpr bool is_unset() const { return raw_ == 0; }
  [[nodiscard]] constexpr std::uint64_t raw() const { return raw_; }
  [[nodiscard]] constexpr std::uint32_t seconds() const {
    return static_cast<std::uint32_t>(raw_ >> 32);
  }
  [[nodiscard]] constexpr std::uint32_t fraction() const {
    return static_cast<std::uint32_t>(raw_ & 0xFFFF'FFFFULL);
  }

  /// Convert back to a simulation instant. Assumes the timestamp falls in
  /// the simulation's NTP era window (no era ambiguity handling needed for
  /// experiment-scale spans).
  [[nodiscard]] TimePoint to_time_point() const;

  /// Difference as a signed duration, correct for sub-era spans.
  [[nodiscard]] Duration operator-(NtpTimestamp o) const;

  constexpr auto operator<=>(const NtpTimestamp&) const = default;

 private:
  explicit constexpr NtpTimestamp(std::uint64_t raw) : raw_(raw) {}
  std::uint64_t raw_ = 0;
};

/// 32-bit NTP short format: 16.16 fixed point, used for root delay and
/// root dispersion fields.
class NtpShort {
 public:
  constexpr NtpShort() = default;

  static constexpr NtpShort from_raw(std::uint32_t raw) { return NtpShort{raw}; }

  /// Convert a non-negative duration, saturating at the format maximum
  /// (~65536 s) and rounding to the nearest representable value.
  static NtpShort from_duration(Duration d);

  [[nodiscard]] constexpr std::uint32_t raw() const { return raw_; }
  [[nodiscard]] constexpr std::uint16_t seconds() const {
    return static_cast<std::uint16_t>(raw_ >> 16);
  }
  [[nodiscard]] constexpr std::uint16_t fraction() const {
    return static_cast<std::uint16_t>(raw_ & 0xFFFFU);
  }

  [[nodiscard]] Duration to_duration() const;

  constexpr auto operator<=>(const NtpShort&) const = default;

 private:
  explicit constexpr NtpShort(std::uint32_t raw) : raw_(raw) {}
  std::uint32_t raw_ = 0;
};

}  // namespace mntp::core
