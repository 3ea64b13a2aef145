// Cross-traffic generator, pinger, and monitor controller tests.
#include <gtest/gtest.h>

#include "net/cross_traffic.h"
#include "net/monitor_controller.h"
#include "net/pinger.h"
#include "net/wired_link.h"
#include "net/wireless_channel.h"
#include "sim/simulation.h"

namespace mntp::net {
namespace {

using core::Duration;
using core::Rng;
using core::TimePoint;

TEST(CrossTraffic, AlternatesIdleAndDownload) {
  sim::Simulation sim;
  WirelessChannel channel(WirelessChannelParams{}, Rng(1));
  CrossTrafficParams p;
  p.mean_idle = Duration::seconds(10);
  p.median_download = Duration::seconds(5);
  CrossTrafficGenerator gen(sim, channel, p, Rng(2));
  gen.start();
  sim.run_until(TimePoint::epoch() + Duration::minutes(30));
  EXPECT_GT(gen.downloads_completed(), 20u);
}

TEST(CrossTraffic, UtilizationHighDuringDownloadLowBetween) {
  sim::Simulation sim;
  WirelessChannel channel(WirelessChannelParams{}, Rng(3));
  CrossTrafficParams p;
  CrossTrafficGenerator gen(sim, channel, p, Rng(4));
  gen.start();
  bool saw_active = false, saw_idle = false;
  for (int i = 1; i <= 1200; ++i) {
    sim.run_until(TimePoint::epoch() + Duration::seconds(i));
    if (gen.download_active()) {
      saw_active = true;
      EXPECT_GE(channel.utilization(), p.min_utilization);
    } else {
      saw_idle = true;
      EXPECT_DOUBLE_EQ(channel.utilization(), p.idle_utilization);
    }
  }
  EXPECT_TRUE(saw_active);
  EXPECT_TRUE(saw_idle);
}

TEST(CrossTraffic, FrequencyScaleChangesDownloadRate) {
  auto downloads_with_scale = [](double scale) {
    sim::Simulation sim;
    WirelessChannel channel(WirelessChannelParams{}, Rng(5));
    CrossTrafficGenerator gen(sim, channel, CrossTrafficParams{}, Rng(6));
    gen.set_frequency_scale(scale);
    gen.start();
    sim.run_until(TimePoint::epoch() + Duration::hours(2));
    return gen.downloads_completed();
  };
  EXPECT_GT(downloads_with_scale(4.0), downloads_with_scale(0.5) * 2);
}

TEST(CrossTraffic, FrequencyScaleClamped) {
  sim::Simulation sim;
  WirelessChannel channel(WirelessChannelParams{}, Rng(7));
  CrossTrafficGenerator gen(sim, channel, CrossTrafficParams{}, Rng(8));
  gen.set_frequency_scale(1000.0);
  EXPECT_DOUBLE_EQ(gen.frequency_scale(), 20.0);
  gen.set_frequency_scale(0.0);
  EXPECT_DOUBLE_EQ(gen.frequency_scale(), 0.05);
}

TEST(Pinger, MeasuresRttOverKnownLinks) {
  sim::Simulation sim;
  WiredLinkParams lp;
  lp.base_delay = Duration::milliseconds(10);
  lp.jitter_median = Duration::zero();
  lp.loss_probability = 0.0;
  lp.bytes_per_second = 0.0;
  WiredLink fwd(lp, Rng(11));
  WiredLink rev(lp, Rng(12));
  PingerParams pp;
  pp.interval = Duration::seconds(1);
  Pinger pinger(sim, LinkPath({&fwd}), LinkPath({&rev}), pp);
  pinger.start();
  sim.run_until(TimePoint::epoch() + Duration::seconds(30));
  const ProbeStats stats = pinger.stats();
  EXPECT_EQ(stats.losses, 0u);
  EXPECT_GT(stats.probes, 10u);
  EXPECT_NEAR(stats.mean_rtt.to_millis(), 20.0, 0.5);
  EXPECT_GE(pinger.total_sent(), 29u);
}

TEST(Pinger, RecordsLossesOnDeadLink) {
  sim::Simulation sim;
  WiredLinkParams lp;
  lp.loss_probability = 1.0;
  WiredLink dead(lp, Rng(13));
  WiredLink rev(WiredLinkParams::lan(), Rng(14));
  Pinger pinger(sim, LinkPath({&dead}), LinkPath({&rev}), PingerParams{});
  pinger.start();
  sim.run_until(TimePoint::epoch() + Duration::seconds(30));
  const ProbeStats stats = pinger.stats();
  EXPECT_EQ(stats.loss_fraction(), 1.0);
}

TEST(Pinger, WindowBoundsStats) {
  sim::Simulation sim;
  WiredLink fwd(WiredLinkParams::lan(), Rng(15));
  WiredLink rev(WiredLinkParams::lan(), Rng(16));
  PingerParams pp;
  pp.window = 5;
  Pinger pinger(sim, LinkPath({&fwd}), LinkPath({&rev}), pp);
  pinger.start();
  sim.run_until(TimePoint::epoch() + Duration::seconds(60));
  EXPECT_EQ(pinger.stats().probes, 5u);
}

TEST(MonitorController, RelievesUnderDistressAddsPressureWhenStable) {
  // Closed-loop smoke: run the full apparatus and verify the controller
  // took decisions in both directions (the channel oscillates).
  sim::Simulation sim;
  WirelessChannel channel(WirelessChannelParams{}, Rng(17));
  CrossTrafficGenerator traffic(sim, channel, CrossTrafficParams{}, Rng(18));
  WiredLink wan_up(WiredLinkParams::wan(Duration::milliseconds(8)), Rng(19));
  WiredLink wan_down(WiredLinkParams::wan(Duration::milliseconds(8)), Rng(20));
  Pinger pinger(sim, LinkPath({&channel.uplink(), &wan_up}),
                LinkPath({&wan_down, &channel.downlink()}), PingerParams{});
  MonitorController controller(sim, channel, traffic, pinger,
                               MonitorControllerParams{});
  traffic.start();
  pinger.start();
  controller.start();
  sim.run_until(TimePoint::epoch() + Duration::hours(1));
  EXPECT_GT(controller.ticks(), 300u);
  EXPECT_GT(controller.relieve_count(), 10u);
  EXPECT_GT(controller.pressure_count(), 10u);
}

TEST(MonitorController, TxPowerStaysWithinBounds) {
  sim::Simulation sim;
  WirelessChannel channel(WirelessChannelParams{}, Rng(21));
  CrossTrafficGenerator traffic(sim, channel, CrossTrafficParams{}, Rng(22));
  WiredLink wan_up(WiredLinkParams::wan(Duration::milliseconds(8)), Rng(23));
  WiredLink wan_down(WiredLinkParams::wan(Duration::milliseconds(8)), Rng(24));
  Pinger pinger(sim, LinkPath({&channel.uplink(), &wan_up}),
                LinkPath({&wan_down, &channel.downlink()}), PingerParams{});
  MonitorControllerParams mp;
  MonitorController controller(sim, channel, traffic, pinger, mp);
  traffic.start();
  pinger.start();
  controller.start();
  for (int m = 1; m <= 60; ++m) {
    sim.run_until(TimePoint::epoch() + Duration::minutes(m));
    ASSERT_GE(channel.tx_power().value(), mp.min_tx_power.value());
    ASSERT_LE(channel.tx_power().value(), mp.max_tx_power.value());
  }
}

}  // namespace
}  // namespace mntp::net
