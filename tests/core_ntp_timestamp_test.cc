#include "core/ntp_timestamp.h"

#include <gtest/gtest.h>

#include "core/rng.h"

namespace mntp::core {
namespace {

TEST(NtpTimestamp, UnsetIsZero) {
  EXPECT_TRUE(NtpTimestamp::unset().is_unset());
  EXPECT_FALSE(NtpTimestamp::from_parts(1, 0).is_unset());
}

TEST(NtpTimestamp, PartsRoundTrip) {
  const auto t = NtpTimestamp::from_parts(0x01234567, 0x89ABCDEF);
  EXPECT_EQ(t.seconds(), 0x01234567u);
  EXPECT_EQ(t.fraction(), 0x89ABCDEFu);
  EXPECT_EQ(t.raw(), 0x0123456789ABCDEFull);
  EXPECT_EQ(NtpTimestamp::from_raw(t.raw()), t);
}

TEST(NtpTimestamp, EpochMapsToSimEpoch) {
  const auto t = NtpTimestamp::from_time_point(TimePoint::epoch());
  EXPECT_EQ(t.seconds(), kSimEpochNtpSeconds);
  EXPECT_EQ(t.fraction(), 0u);
  EXPECT_EQ(t.to_time_point(), TimePoint::epoch());
}

TEST(NtpTimestamp, FractionResolution) {
  // Half a second is exactly 2^31 fraction units.
  const auto t = NtpTimestamp::from_time_point(TimePoint::epoch() +
                                               Duration::milliseconds(500));
  EXPECT_EQ(t.fraction(), 0x80000000u);
}

TEST(NtpTimestamp, DifferenceIsSigned) {
  const auto a = NtpTimestamp::from_time_point(TimePoint::epoch() +
                                               Duration::milliseconds(100));
  const auto b = NtpTimestamp::from_time_point(TimePoint::epoch() +
                                               Duration::milliseconds(250));
  EXPECT_NEAR((b - a).to_millis(), 150.0, 1e-3);
  EXPECT_NEAR((a - b).to_millis(), -150.0, 1e-3);
}

TEST(NtpTimestamp, NegativeSimTime) {
  const TimePoint t = TimePoint::epoch() - Duration::milliseconds(1500);
  const auto ts = NtpTimestamp::from_time_point(t);
  const TimePoint back = ts.to_time_point();
  EXPECT_LE((back - t).abs().ns(), 2);
}

TEST(NtpTimestampProperty, TimePointRoundTripWithinOneNanosecond) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const auto t = TimePoint::from_ns(rng.uniform_int(0, 86'400'000'000'000LL));
    const TimePoint back = NtpTimestamp::from_time_point(t).to_time_point();
    ASSERT_LE((back - t).abs().ns(), 1) << "t=" << t.ns();
  }
}

TEST(NtpTimestampProperty, DifferenceMatchesTimePointDifference) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto a = TimePoint::from_ns(rng.uniform_int(0, 3'600'000'000'000LL));
    const auto b = TimePoint::from_ns(rng.uniform_int(0, 3'600'000'000'000LL));
    const Duration via_ntp =
        NtpTimestamp::from_time_point(b) - NtpTimestamp::from_time_point(a);
    ASSERT_NEAR(via_ntp.to_seconds(), (b - a).to_seconds(), 2e-9);
  }
}

TEST(NtpShort, RoundTrip) {
  const auto s = NtpShort::from_duration(Duration::milliseconds(125));
  EXPECT_NEAR(s.to_duration().to_millis(), 125.0, 0.02);
}

TEST(NtpShort, PartsAccessors) {
  const auto s = NtpShort::from_raw(0x00018000u);  // 1.5 s
  EXPECT_EQ(s.seconds(), 1u);
  EXPECT_EQ(s.fraction(), 0x8000u);
  EXPECT_DOUBLE_EQ(s.to_duration().to_seconds(), 1.5);
}

TEST(NtpShort, NegativeClampsToZero) {
  EXPECT_EQ(NtpShort::from_duration(Duration::milliseconds(-5)).raw(), 0u);
}

TEST(NtpShort, SaturatesAtFormatMax) {
  EXPECT_EQ(NtpShort::from_duration(Duration::hours(48)).raw(), 0xFFFFFFFFu);
}

TEST(NtpShortProperty, RoundTripWithin16Microseconds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const Duration d = Duration::nanoseconds(rng.uniform_int(0, 60'000'000'000LL));
    const Duration back = NtpShort::from_duration(d).to_duration();
    // 16.16 resolution is ~15.3 us.
    ASSERT_LE((back - d).abs().to_micros(), 16.0);
  }
}

}  // namespace
}  // namespace mntp::core
