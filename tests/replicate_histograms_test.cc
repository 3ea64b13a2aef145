// Thread-count invariance of the metrics registry.
//
// Replicate workers share one obs::Telemetry, so every transmit, query
// and dispatch records into the same series from several threads. Those
// series are sharded counters and HDR histograms: per-thread shards whose
// merge is order-free, so the report a replicated run prints must not
// depend on how many workers recorded it or in which order they ran.
#include <gtest/gtest.h>

#include <string>
#include <utility>
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

/// Every registry snapshot after a replicated Fig 12 head-to-head (SNTP +
/// MNTP on one wireless channel) on `threads` workers.
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
  return telemetry.metrics().snapshot();
}

/// The serial and 4-worker runs, computed once for every test below.
const std::pair<std::vector<obs::MetricSnapshot>,
                std::vector<obs::MetricSnapshot>>&
serial_and_parallel() {
  static const auto runs =
      std::pair{replicated_head_to_head(1), replicated_head_to_head(4)};
  return runs;
}

/// Exact equality: the merged state is bit-identical.
void expect_identical(const obs::MetricSnapshot& a,
                      const obs::MetricSnapshot& b) {
  SCOPED_TRACE(a.name);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.buckets, b.buckets);
}

std::vector<obs::MetricSnapshot> per_packet_histograms(
    const std::vector<obs::MetricSnapshot>& all) {
  std::vector<obs::MetricSnapshot> out;
  for (const obs::MetricSnapshot& m : all) {
    if (m.name == obs::metric_names::kNetWifiDelayMs ||
        m.name == obs::metric_names::kNtpQueryRttMs ||
        m.name == obs::metric_names::kSimQueueDepth) {
      out.push_back(m);
    }
  }
  return out;
}

TEST(ReplicatedHeadToHead, MergedHistogramsMatchAcrossThreadCounts) {
  const auto serial = per_packet_histograms(serial_and_parallel().first);
  const auto parallel = per_packet_histograms(serial_and_parallel().second);
  // net.wifi.delay_ms{up,down}, ntp.query.rtt_ms, sim.queue_depth.
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].kind, obs::MetricSnapshot::Kind::kHistogram);
    EXPECT_GT(serial[i].count, 0u);
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(ReplicatedHeadToHead, EveryMetricMatchesAcrossThreadCounts) {
  // Not only the per-packet histograms: every counter, gauge and
  // histogram the run registers, so no host-dependent series (wall
  // clocks, per-thread state) can reach the report.
  const auto& [serial, parallel] = serial_and_parallel();
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
  }
}

}  // namespace
}  // namespace mntp
