// Fleet determinism matrix: the simulator must produce bit-identical
// results — counters AND merged OWD histograms — for any worker count
// and any shard count. This is the contract that lets the bench gate
// compare fleet_qps numbers across machines with different core counts.
//
// Also the tsan_fleet target: under ThreadSanitizer this exercises the
// two-phase shard/server fan-out for races.
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/client_fleet.h"
#include "fleet/params.h"
#include "fleet/simulator.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace mntp {
namespace {

fleet::FleetParams base_params() {
  fleet::FleetParams p;
  p.clients = 20'000;
  p.duration_s = 30.0;
  p.shards = 16;
  p.seed = 7;
  return p;
}

fleet::FleetResult run_once(const fleet::FleetParams& p, std::size_t threads) {
  // Fresh telemetry per run so registry state never couples runs.
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  return sim.run(threads);
}

TEST(FleetDeterminism, BitIdenticalAcrossThreadCounts) {
  const fleet::FleetParams p = base_params();
  const fleet::FleetResult serial = run_once(p, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const fleet::FleetResult threaded = run_once(p, threads);
    EXPECT_TRUE(serial.deterministic_equal(threaded))
        << "threads=" << threads;
    EXPECT_EQ(serial.owd.by_class[0][0], threaded.owd.by_class[0][0]);
    EXPECT_EQ(serial.owd.by_class[1][1], threaded.owd.by_class[1][1]);
    EXPECT_EQ(serial.owd.by_category[3], threaded.owd.by_category[3]);
  }
}

TEST(FleetDeterminism, BitIdenticalAcrossShardCounts) {
  // Client->shard assignment is id % shards, but per-query randomness is
  // keyed on (client root, id, poll time) — independent of which shard
  // processed it — and servers re-sort arrivals canonically. So any shard
  // count must yield the same result.
  fleet::FleetParams p = base_params();
  p.shards = 3;
  const fleet::FleetResult reference = run_once(p, 2);
  for (const std::size_t shards : {std::size_t{16}, std::size_t{64}}) {
    p.shards = shards;
    const fleet::FleetResult other = run_once(p, 2);
    EXPECT_TRUE(reference.deterministic_equal(other))
        << "shards=" << shards;
  }
}

TEST(FleetDeterminism, RegistryHistogramsMatchAcrossThreads) {
  // The obs-layer series (what telemetry sinks export) must merge to the
  // same histogram regardless of which worker recorded each sample.
  const fleet::FleetParams p = base_params();
  std::vector<obs::MetricSnapshot> merged;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    obs::Telemetry tel;
    obs::ScopedTelemetry scope(tel);
    fleet::Simulator sim(std::make_shared<const fleet::ClientFleet>(
                             fleet::ClientFleet::build(p)),
                         p);
    (void)sim.run(threads);
    // snapshot() iterates an ordered map, so series order is stable.
    for (obs::MetricSnapshot& m : tel.metrics().snapshot()) {
      if (m.name == "fleet.owd_ms") merged.push_back(std::move(m));
    }
  }
  ASSERT_EQ(merged.size(), 8U);  // 4 speaker x population series per run
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(merged[i].labels, merged[i + 4].labels) << "series " << i;
    EXPECT_EQ(merged[i].count, merged[i + 4].count) << "series " << i;
    EXPECT_EQ(merged[i].sum, merged[i + 4].sum) << "series " << i;
    EXPECT_EQ(merged[i].buckets, merged[i + 4].buckets) << "series " << i;
  }
}

}  // namespace
}  // namespace mntp
