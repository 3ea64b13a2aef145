#include "core/ntp_timestamp.h"

#include <cmath>

namespace mntp::core {

namespace {
constexpr double kFrac32 = 4294967296.0;  // 2^32
constexpr double kFrac16 = 65536.0;       // 2^16
}  // namespace

NtpTimestamp NtpTimestamp::from_time_point(TimePoint t) {
  // Split into whole seconds and a nanosecond remainder; supports negative
  // simulation times (pre-epoch instants used in a few tests).
  std::int64_t ns = t.ns();
  std::int64_t sec = ns / 1'000'000'000;
  std::int64_t rem = ns % 1'000'000'000;
  if (rem < 0) {
    sec -= 1;
    rem += 1'000'000'000;
  }
  const std::uint64_t ntp_sec =
      kSimEpochNtpSeconds + static_cast<std::uint64_t>(sec);
  const auto frac = static_cast<std::uint32_t>(
      (static_cast<double>(rem) * kFrac32) / 1e9 + 0.5);
  // frac can round up to 2^32 for rem just below a full second.
  if (frac == 0 && rem > 500'000'000) {
    return from_parts(static_cast<std::uint32_t>(ntp_sec + 1), 0);
  }
  return from_parts(static_cast<std::uint32_t>(ntp_sec), frac);
}

TimePoint NtpTimestamp::to_time_point() const {
  const auto sec =
      static_cast<std::int64_t>(seconds()) - static_cast<std::int64_t>(kSimEpochNtpSeconds);
  const auto frac_ns = static_cast<std::int64_t>(
      static_cast<double>(fraction()) * 1e9 / kFrac32 + 0.5);
  return TimePoint::from_ns(sec * 1'000'000'000 + frac_ns);
}

Duration NtpTimestamp::operator-(NtpTimestamp o) const {
  // Subtract in the 64-bit fixed-point domain; the signed reinterpretation
  // yields the correct result for spans shorter than half an era.
  const auto diff = static_cast<std::int64_t>(raw_ - o.raw_);
  const double seconds_diff = static_cast<double>(diff) / kFrac32;
  return Duration::from_seconds(seconds_diff);
}

NtpShort NtpShort::from_duration(Duration d) {
  if (d < Duration::zero()) return NtpShort::from_raw(0);
  const double s = d.to_seconds();
  if (s >= 65535.999985) return NtpShort::from_raw(0xFFFF'FFFFU);
  return NtpShort::from_raw(static_cast<std::uint32_t>(s * kFrac16 + 0.5));
}

Duration NtpShort::to_duration() const {
  return Duration::from_seconds(static_cast<double>(raw_) / kFrac16);
}

}  // namespace mntp::core
