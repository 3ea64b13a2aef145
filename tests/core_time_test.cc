#include "core/time.h"

#include <gtest/gtest.h>

namespace mntp::core {
namespace {

TEST(Duration, NamedConstructorsAgree) {
  EXPECT_EQ(Duration::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(Duration::milliseconds(1).ns(), 1'000'000);
  EXPECT_EQ(Duration::microseconds(1).ns(), 1'000);
  EXPECT_EQ(Duration::nanoseconds(42).ns(), 42);
  EXPECT_EQ(Duration::minutes(2), Duration::seconds(120));
  EXPECT_EQ(Duration::hours(1), Duration::minutes(60));
}

TEST(Duration, FromSecondsRoundsToNearest) {
  EXPECT_EQ(Duration::from_seconds(1e-9).ns(), 1);
  EXPECT_EQ(Duration::from_seconds(1.4e-9).ns(), 1);
  EXPECT_EQ(Duration::from_seconds(1.6e-9).ns(), 2);
  EXPECT_EQ(Duration::from_seconds(-1.6e-9).ns(), -2);
  EXPECT_EQ(Duration::from_millis(2.5).ns(), 2'500'000);
}

TEST(Duration, ArithmeticAndComparison) {
  const Duration a = Duration::milliseconds(30);
  const Duration b = Duration::milliseconds(12);
  EXPECT_EQ((a + b).to_millis(), 42.0);
  EXPECT_EQ((a - b).to_millis(), 18.0);
  EXPECT_EQ((-a).ns(), -a.ns());
  EXPECT_EQ((a * 3).to_millis(), 90.0);
  EXPECT_EQ((a / 3).to_millis(), 10.0);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_LT(b, a);
  EXPECT_GT(a, Duration::zero());
}

TEST(Duration, CompoundAssignment) {
  Duration d = Duration::seconds(1);
  d += Duration::milliseconds(500);
  EXPECT_EQ(d.to_millis(), 1500.0);
  d -= Duration::seconds(1);
  EXPECT_EQ(d.to_millis(), 500.0);
}

TEST(Duration, ScaledRounds) {
  EXPECT_EQ(Duration::milliseconds(10).scaled(0.5).to_millis(), 5.0);
  EXPECT_EQ(Duration::nanoseconds(3).scaled(0.5).ns(), 2);  // 1.5 -> 2
  EXPECT_EQ(Duration::milliseconds(-10).scaled(0.5).to_millis(), -5.0);
}

TEST(Duration, Abs) {
  EXPECT_EQ(Duration::milliseconds(-7).abs(), Duration::milliseconds(7));
  EXPECT_EQ(Duration::milliseconds(7).abs(), Duration::milliseconds(7));
  EXPECT_EQ(Duration::zero().abs(), Duration::zero());
}

TEST(Duration, ConversionAccessors) {
  const Duration d = Duration::microseconds(1500);
  EXPECT_DOUBLE_EQ(d.to_seconds(), 1.5e-3);
  EXPECT_DOUBLE_EQ(d.to_millis(), 1.5);
  EXPECT_DOUBLE_EQ(d.to_micros(), 1500.0);
}

TEST(TimePoint, EpochAndOffsets) {
  const TimePoint e = TimePoint::epoch();
  EXPECT_EQ(e.ns(), 0);
  const TimePoint t = e + Duration::seconds(5);
  EXPECT_EQ(t.ns(), 5'000'000'000);
  EXPECT_EQ(t - e, Duration::seconds(5));
  EXPECT_EQ(t - Duration::seconds(2), e + Duration::seconds(3));
}

TEST(TimePoint, Comparison) {
  const TimePoint a = TimePoint::from_ns(10);
  const TimePoint b = TimePoint::from_ns(20);
  EXPECT_LT(a, b);
  EXPECT_EQ(a, TimePoint::from_ns(10));
  EXPECT_GT(TimePoint::max(), b);
}

TEST(TimePoint, PlusEquals) {
  TimePoint t = TimePoint::epoch();
  t += Duration::milliseconds(250);
  EXPECT_EQ(t.to_seconds(), 0.25);
}

// Property sweep: round-tripping through seconds loses < 1 ns.
class DurationRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DurationRoundTrip, SecondsRoundTrip) {
  const Duration d = Duration::nanoseconds(GetParam());
  const Duration back = Duration::from_seconds(d.to_seconds());
  EXPECT_LE((back - d).abs().ns(), 1) << "ns=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, DurationRoundTrip,
                         ::testing::Values(0, 1, -1, 999, 1'000'000,
                                           123'456'789, -987'654'321,
                                           3'600'000'000'000LL,
                                           -3'600'000'000'000LL));

}  // namespace
}  // namespace mntp::core
