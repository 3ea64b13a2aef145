#include "net/wireless_channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/stats.h"
#include "mntp/params.h"

namespace mntp::net {
namespace {

using core::Duration;
using core::Rng;
using core::TimePoint;

TimePoint at_s(double s) {
  return TimePoint::epoch() + Duration::from_seconds(s);
}

TEST(WirelessChannel, DeterministicPerSeed) {
  WirelessChannel a(WirelessChannelParams{}, Rng(42));
  WirelessChannel b(WirelessChannelParams{}, Rng(42));
  for (int i = 1; i <= 100; ++i) {
    const auto ra = a.transmit_dir(at_s(i), 76, true);
    const auto rb = b.transmit_dir(at_s(i), 76, true);
    ASSERT_EQ(ra.delivered, rb.delivered);
    ASSERT_EQ(ra.delay, rb.delay);
    const auto ha = a.observe_hints(at_s(i));
    const auto hb = b.observe_hints(at_s(i));
    ASSERT_DOUBLE_EQ(ha.rssi.value(), hb.rssi.value());
  }
}

TEST(WirelessChannel, DropConsumesNoBackoffDraw) {
  // End to end through the channel (the MAC loop's own draw counts are
  // pinned on the kernel, WirelessKernel.DropConsumesNoBackoffDraw):
  // with max_retries = 0 and a guaranteed collision, a drop must consume
  // exactly as many draws as a clean first-attempt delivery, so two
  // channels sharing a seed stay in lockstep afterwards.
  WirelessChannelParams p;
  p.max_retries = 0;
  p.collision_at_full_load = 1.0;
  // The delivering channel must be in the good state at t = 1 s; its
  // first good->bad transition is Exp(mean_good_duration), so pin it.
  p.mean_good_duration = Duration::seconds(1'000'000'000);
  WirelessChannel drop_ch(p, Rng(21));
  WirelessChannel deliver_ch(p, Rng(21));
  drop_ch.set_utilization(1.0);  // p_fail clamps to 1: certain drop
  deliver_ch.set_utilization(0.0);
  ASSERT_FALSE(drop_ch.transmit_dir(at_s(1), 76, true).delivered);
  ASSERT_TRUE(deliver_ch.transmit_dir(at_s(1), 76, true).delivered);
  // Equalize the deterministic load-dependent noise term, then compare
  // hint streams: any dead draw on the drop path desynchronizes them.
  drop_ch.set_utilization(0.0);
  for (int i = 2; i <= 20; ++i) {
    const auto ha = drop_ch.observe_hints(at_s(i));
    const auto hb = deliver_ch.observe_hints(at_s(i));
    ASSERT_DOUBLE_EQ(ha.rssi.value(), hb.rssi.value());
    ASSERT_DOUBLE_EQ(ha.noise.value(), hb.noise.value());
  }
}

TEST(WirelessChannel, TimeBackwardsThrows) {
  WirelessChannel c(WirelessChannelParams{}, Rng(1));
  (void)c.observe_hints(at_s(10));
  EXPECT_THROW((void)c.observe_hints(at_s(5)), std::logic_error);
}

TEST(WirelessChannel, RejectsBadParams) {
  WirelessChannelParams p;
  p.max_retries = -1;
  EXPECT_THROW(WirelessChannel(p, Rng(1)), std::invalid_argument);
  WirelessChannelParams q;
  q.snr_slope_db = 0.0;
  EXPECT_THROW(WirelessChannel(q, Rng(1)), std::invalid_argument);
}

TEST(WirelessChannel, BadStateOccupancyMatchesSojournRatio) {
  WirelessChannelParams p;
  p.mean_good_duration = Duration::seconds(30);
  p.mean_bad_duration = Duration::seconds(10);
  WirelessChannel c(p, Rng(7));
  int bad = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (c.in_bad_state(at_s(i * 0.5))) ++bad;
  }
  EXPECT_NEAR(static_cast<double>(bad) / n, 0.25, 0.05);
}

TEST(WirelessChannel, BadStateDegradesSnr) {
  WirelessChannel c(WirelessChannelParams{}, Rng(8));
  core::RunningStats good_snr, bad_snr;
  for (int i = 0; i < 20000; ++i) {
    const TimePoint t = at_s(i * 0.5);
    const double snr = c.true_hints(t).snr_margin().value();
    (c.in_bad_state(t) ? bad_snr : good_snr).add(snr);
  }
  ASSERT_GT(good_snr.count(), 100u);
  ASSERT_GT(bad_snr.count(), 100u);
  // Bad state loses bad_extra_fade + bad_noise_rise = 26 dB nominal.
  EXPECT_GT(good_snr.mean() - bad_snr.mean(), 20.0);
}

TEST(WirelessChannel, TxPowerMovesRssi) {
  WirelessChannelParams p;
  p.shadowing_sigma_db = 0.0;
  p.fast_fading_sigma_db = 0.0;
  WirelessChannel c(p, Rng(9));
  const double before = c.true_hints(at_s(1)).rssi.value();
  c.set_tx_power(c.tx_power() + core::Decibels{5.0});
  const double after = c.true_hints(at_s(1.01)).rssi.value();
  EXPECT_NEAR(after - before, 5.0, 1e-9);
}

TEST(WirelessChannel, UtilizationRaisesNoiseAndDelay) {
  WirelessChannelParams p;
  p.noise_sigma_db = 0.0;
  // Both noise readings must come from the good state (a bad state adds
  // bad_noise_rise); its first good->bad transition is
  // Exp(mean_good_duration), so pin it.
  p.mean_good_duration = Duration::seconds(1'000'000'000);
  WirelessChannel c(p, Rng(10));
  c.set_utilization(0.0);
  const double noise_idle = c.true_hints(at_s(1)).noise.value();
  core::RunningStats idle_delay;
  for (int i = 0; i < 2000; ++i) {
    const auto r = c.transmit_dir(at_s(1 + i * 0.001), 76, true);
    if (r.delivered) idle_delay.add(r.delay.to_millis());
  }
  c.set_utilization(0.9);
  const double noise_busy = c.true_hints(at_s(4)).noise.value();
  core::RunningStats busy_delay;
  for (int i = 0; i < 2000; ++i) {
    const auto r = c.transmit_dir(at_s(4 + i * 0.001), 76, true);
    if (r.delivered) busy_delay.add(r.delay.to_millis());
  }
  EXPECT_NEAR(noise_busy - noise_idle,
              p.load_noise_rise.value() * 0.9, 1.0);
  EXPECT_GT(busy_delay.mean(), idle_delay.mean());
}

TEST(WirelessChannel, UtilizationClamped) {
  WirelessChannel c(WirelessChannelParams{}, Rng(11));
  c.set_utilization(7.0);
  EXPECT_DOUBLE_EQ(c.utilization(), 1.0);
  c.set_utilization(-3.0);
  EXPECT_DOUBLE_EQ(c.utilization(), 0.0);
}

TEST(WirelessChannel, UplinkSlowerOnAverageThanDownlink) {
  WirelessChannel c(WirelessChannelParams{}, Rng(12));
  c.set_utilization(0.7);
  core::RunningStats up, down;
  for (int i = 0; i < 40000; ++i) {
    const TimePoint t = at_s(i * 0.25);
    const auto ru = c.transmit_dir(t, 76, true);
    if (ru.delivered) up.add(ru.delay.to_millis());
    const auto rd = c.transmit_dir(t, 76, false);
    if (rd.delivered) down.add(rd.delay.to_millis());
  }
  EXPECT_GT(up.mean(), down.mean());
}

TEST(WirelessChannel, LossRateHigherInBadState) {
  WirelessChannel c(WirelessChannelParams{}, Rng(13));
  std::size_t good_n = 0, good_lost = 0, bad_n = 0, bad_lost = 0;
  for (int i = 0; i < 40000; ++i) {
    const TimePoint t = at_s(i * 0.25);
    const bool bad = c.in_bad_state(t);
    const auto r = c.transmit_dir(t, 76, true);
    if (bad) {
      ++bad_n;
      if (!r.delivered) ++bad_lost;
    } else {
      ++good_n;
      if (!r.delivered) ++good_lost;
    }
  }
  const double good_rate = static_cast<double>(good_lost) / good_n;
  const double bad_rate = static_cast<double>(bad_lost) / bad_n;
  EXPECT_LT(good_rate, 0.05);
  EXPECT_GT(bad_rate, 0.1);
  EXPECT_GT(bad_rate, good_rate * 5);
}

TEST(WirelessChannel, HintsGateCorrelatesWithChannelQuality) {
  // The crux of MNTP: instants passing the hint thresholds must offer
  // materially better delivery than instants failing them.
  WirelessChannel c(WirelessChannelParams{}, Rng(14));
  const protocol::HintThresholds thresholds;
  core::RunningStats pass_delay, fail_delay;
  std::size_t pass_lost = 0, pass_n = 0, fail_lost = 0, fail_n = 0;
  for (int i = 0; i < 40000; ++i) {
    const TimePoint t = at_s(i * 0.25);
    const bool favorable = thresholds.favorable(c.observe_hints(t));
    const auto r = c.transmit_dir(t, 76, true);
    if (favorable) {
      ++pass_n;
      if (r.delivered) pass_delay.add(r.delay.to_millis());
      else ++pass_lost;
    } else {
      ++fail_n;
      if (r.delivered) fail_delay.add(r.delay.to_millis());
      else ++fail_lost;
    }
  }
  ASSERT_GT(pass_n, 1000u);
  ASSERT_GT(fail_n, 1000u);
  EXPECT_LT(static_cast<double>(pass_lost) / pass_n,
            static_cast<double>(fail_lost) / fail_n);
  EXPECT_LT(pass_delay.mean(), fail_delay.mean());
}

TEST(WirelessChannel, HintObservationTracksTrueState) {
  WirelessChannel c(WirelessChannelParams{}, Rng(15));
  core::RunningStats error;
  for (int i = 0; i < 5000; ++i) {
    const TimePoint t = at_s(i * 0.5);
    const auto h = c.observe_hints(t);
    error.add(h.rssi.value() - c.true_hints(t).rssi.value());
  }
  EXPECT_NEAR(error.mean(), 0.0, 0.1);
  EXPECT_NEAR(error.stddev(), WirelessChannelParams{}.fast_fading_sigma_db, 0.1);
}

}  // namespace
}  // namespace mntp::net
