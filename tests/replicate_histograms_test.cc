// Thread-count invariance of the per-packet and per-event histograms.
//
// Replicate workers share one obs::Telemetry, so every transmit, query
// and dispatch records into the same series from several threads. Those
// series are sharded HDR histograms: per-thread shards whose merge is
// order-free, so the report a replicated run prints must not depend on
// how many workers recorded it or in which order they ran.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mntp/mntp_client.h"
#include "mntp/params.h"
#include "ntp/sntp_client.h"
#include "ntp/testbed.h"
#include "obs/metric_names.h"
#include "obs/telemetry.h"
#include "sim/replicate.h"

namespace mntp {
namespace {

/// Snapshots of the per-packet/per-event series after a replicated
/// Fig 12 head-to-head (SNTP + MNTP on one wireless channel) on
/// `threads` workers.
std::vector<obs::MetricSnapshot> replicated_head_to_head(std::size_t threads) {
  obs::Telemetry telemetry;
  obs::ScopedTelemetry scope(telemetry);
  const sim::ReplicationRunner runner({.replicates = 6, .threads = threads});
  (void)runner.run(12, sim::ReplicationRunner::Scenario(
                           [](std::uint64_t seed, std::size_t) {
                             ntp::TestbedConfig config;
                             config.seed = seed;
                             config.wireless = true;
                             config.ntp_correction = false;
                             ntp::Testbed bed(config);
                             ntp::SntpClient sntp(
                                 bed.sim(), bed.target_clock(), bed.pool(),
                                 bed.last_hop_up(), bed.last_hop_down(),
                                 ntp::SntpClientPolicy{});
                             protocol::MntpClient mntp_client(
                                 bed.sim(), bed.target_clock(), bed.pool(),
                                 bed.channel(), protocol::head_to_head_params(),
                                 bed.fork_rng());
                             bed.start();
                             sntp.start();
                             mntp_client.start();
                             bed.sim().run_until(core::TimePoint::epoch() +
                                                 core::Duration::hours(1));
                             return std::vector<sim::MetricValue>{};
                           }));
  std::vector<obs::MetricSnapshot> out;
  for (obs::MetricSnapshot& m : telemetry.metrics().snapshot()) {
    if (m.name == obs::metric_names::kNetWifiDelayMs ||
        m.name == obs::metric_names::kNtpQueryRttMs ||
        m.name == obs::metric_names::kSimQueueDepth) {
      out.push_back(std::move(m));
    }
  }
  return out;
}

TEST(ReplicatedHeadToHead, MergedHistogramsMatchAcrossThreadCounts) {
  const std::vector<obs::MetricSnapshot> serial = replicated_head_to_head(1);
  const std::vector<obs::MetricSnapshot> parallel = replicated_head_to_head(4);
  // net.wifi.delay_ms{up,down}, ntp.query.rtt_ms, sim.queue_depth.
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const obs::MetricSnapshot& a = serial[i];
    const obs::MetricSnapshot& b = parallel[i];
    SCOPED_TRACE(a.name);
    EXPECT_EQ(a.kind, obs::MetricSnapshot::Kind::kHistogram);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_GT(a.count, 0u);
    // Exact equality: the merged state is bit-identical.
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p90, b.p90);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.buckets, b.buckets);
  }
}

}  // namespace
}  // namespace mntp
