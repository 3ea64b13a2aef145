// Fleet determinism matrix: the simulator must produce bit-identical
// results — counters AND merged OWD histograms — for any worker count
// and any shard count. This is the contract that lets the bench gate
// compare fleet_qps numbers across machines with different core counts.
//
// Also the tsan_fleet target: under ThreadSanitizer this exercises the
// two-phase shard/server fan-out for races.
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/client_fleet.h"
#include "fleet/params.h"
#include "fleet/simulator.h"
#include "logs/spec.h"
#include "obs/hdr_histogram.h"
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
  // Each shard owns a contiguous id range, so the shard count decides
  // which shard processes a client; but per-query randomness is keyed on
  // (client root, id, poll time) — independent of the shard — and
  // servers re-sort arrivals canonically. So any shard count must yield
  // the same result.
  fleet::FleetParams p = base_params();
  p.shards = 3;
  const fleet::FleetResult reference = run_once(p, 2);
  // One shard drains the longest slots; 16 and 64 split them.
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{16}, std::size_t{64}}) {
    p.shards = shards;
    const fleet::FleetResult other = run_once(p, 2);
    EXPECT_TRUE(reference.deterministic_equal(other))
        << "shards=" << shards;
  }

  // One client per shard: every drained slot holds 0 or 1 id, and a
  // tight KoD limit sends short server batches down the backoff path.
  fleet::FleetParams tiny = base_params();
  tiny.clients = 200;
  tiny.kod_limit_per_slice = 2;
  tiny.shards = 1;
  const fleet::FleetResult one_shard = run_once(tiny, 2);
  ASSERT_GT(one_shard.kod, 0U);
  tiny.shards = tiny.clients;
  const fleet::FleetResult per_client = run_once(tiny, 2);
  EXPECT_TRUE(one_shard.deterministic_equal(per_client))
      << "shards=" << tiny.shards;
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


// --- Golden pin ---------------------------------------------------------
//
// The whole FleetResult of one small run with a tight KoD limit (so the
// backoff path rewrites intervals), recorded once. Any change to a draw,
// to the canonical Phase-B order or to what a query reads shows up here,
// even when it is deterministic across threads and shards.

fleet::FleetParams golden_params() {
  fleet::FleetParams p;
  p.clients = 20'000;
  p.duration_s = 120.0;
  p.shards = 8;
  p.seed = 26;
  p.kod_limit_per_slice = 100;
  return p;
}

struct HistPin {
  std::uint64_t count;
  double min;
  double max;
  std::uint64_t buckets_fnv;  // bucket_checksum() of the full vector
};

/// FNV-1a over every (upper bound bits, count) pair of buckets(), so the
/// pin covers the whole distribution, not only its count and extrema.
std::uint64_t bucket_checksum(const obs::HdrHistogram& h) {
  std::uint64_t hash = 14695981039346656037ULL;
  auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFFU;
      hash *= 1099511628211ULL;
    }
  };
  for (const auto& [bound, count] : h.buckets()) {
    mix(std::bit_cast<std::uint64_t>(bound));
    mix(count);
  }
  return hash;
}

void expect_hist(const obs::HdrHistogram& h, const HistPin& pin,
                 const std::string& what) {
  EXPECT_EQ(h.count(), pin.count) << what;
  EXPECT_EQ(h.min(), pin.min) << what;
  EXPECT_EQ(h.max(), pin.max) << what;
  EXPECT_EQ(bucket_checksum(h), pin.buckets_fnv) << what;
}

TEST(FleetDeterminism, GoldenResultPinned) {
  const fleet::FleetResult r = run_once(golden_params(), 2);
  EXPECT_EQ(r.clients, 20'000U);
  EXPECT_EQ(r.sntp_clients, 14'758U);
  EXPECT_EQ(r.ntp_clients, 5'242U);
  EXPECT_EQ(r.wireless_clients, 7'668U);
  EXPECT_EQ(r.wired_clients, 12'332U);
  EXPECT_EQ(r.queries, 35'627U);
  EXPECT_EQ(r.arrived, 35'300U);
  EXPECT_EQ(r.dropped, 327U);
  EXPECT_EQ(r.kod, 8'637U);
  EXPECT_EQ(r.cache_hits, 21'477U);
  EXPECT_EQ(r.cache_misses, 5'186U);
  const std::vector<std::uint64_t> server_requests = {
      1506, 0, 0, 0, 0, 0, 0, 39, 81, 13, 20637, 3022, 6358, 2709, 71, 73,
      44, 434, 313};
  EXPECT_EQ(r.server_requests, server_requests);
  EXPECT_EQ(r.owd.valid, 24'714U);
  EXPECT_EQ(r.owd.invalid, 1'949U);

  // [speaker][population]: ntp/sntp x wired/wireless.
  const std::array<std::array<HistPin, 2>, 2> by_class = {{
      {{{2177, 0.22886128631928904, 1677.3730460566373,
         3175136253918869820ULL},
        {674, 0.391164216219828, 2988.1758950561302,
         3290698212101695828ULL}}},
      {{{14011, 0.2593003918100536, 2990.0873518431426,
         15146497914598335826ULL},
        {7852, 0.24241125012607911, 2999.7342074268859,
         7775375902606870134ULL}}},
  }};
  for (std::size_t sp = 0; sp < 2; ++sp) {
    for (std::size_t pop = 0; pop < 2; ++pop) {
      expect_hist(r.owd.by_class[sp][pop], by_class[sp][pop],
                  "by_class[" + std::to_string(sp) + "][" +
                      std::to_string(pop) + "]");
    }
  }
  // cloud, isp, broadband, mobile.
  const std::array<HistPin, 4> by_category = {{
      {3790, 0.22886128631928904, 755.42235500975539,
       13572850589863017440ULL},
      {7222, 0.24241125012607911, 653.57713592923812,
       8431898532221899293ULL},
      {9593, 5.2547242614253102, 2998.2027002157829,
       13031391050024797192ULL},
      {4109, 166.17797208515725, 2999.7342074268859,
       14401140860822321294ULL},
  }};
  for (std::size_t c = 0; c < 4; ++c) {
    expect_hist(r.owd.by_category[c], by_category[c],
                "by_category[" + std::to_string(c) + "]");
  }
}

TEST(FleetDeterminism, RegistryHoldsTwiceTheResultAfterTwoRuns) {
  // Two runs in one telemetry context: every fleet.* series must hold
  // exactly the sum of both results. Pins that the client counters are
  // added per shard-slice, the server counters per server-slice, and the
  // OWD summary published once per run.
  const fleet::FleetParams p = golden_params();
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult r = sim.run(2);
  ASSERT_TRUE(r.deterministic_equal(sim.run(2)));

  auto twice = [](const obs::HdrHistogram& h) {
    obs::HdrHistogram out = h;
    out.merge(h);
    return out;
  };
  std::size_t checked = 0;
  for (const obs::MetricSnapshot& m : tel.metrics().snapshot()) {
    if (!m.name.starts_with("fleet.")) continue;
    ++checked;
    if (m.kind == obs::MetricSnapshot::Kind::kCounter) {
      std::uint64_t expected = 0;
      if (m.name == "fleet.client.queries") {
        expected = r.queries;
      } else if (m.name == "fleet.client.dropped") {
        expected = r.dropped;
      } else if (m.name == "fleet.server.kod") {
        expected = r.kod;
      } else if (m.name == "fleet.server.cache_hits") {
        expected = r.cache_hits;
      } else if (m.name == "fleet.server.cache_misses") {
        expected = r.cache_misses;
      } else if (m.name == "fleet.owd.invalid") {
        expected = r.owd.invalid;
      } else if (m.name == "fleet.server.requests") {
        ASSERT_EQ(m.labels.size(), 1U);
        std::size_t s = 0;
        while (s < logs::kPaperServers.size() &&
               logs::kPaperServers[s].id != m.labels[0].second) {
          ++s;
        }
        ASSERT_LT(s, r.server_requests.size()) << m.labels[0].second;
        expected = r.server_requests[s];
      } else {
        ADD_FAILURE() << "unexpected fleet counter " << m.name;
      }
      EXPECT_EQ(m.value, static_cast<double>(2 * expected)) << m.name;
      continue;
    }
    ASSERT_EQ(m.kind, obs::MetricSnapshot::Kind::kHistogram) << m.name;
    const obs::HdrHistogram* h = nullptr;
    if (m.name == "fleet.owd_ms") {
      // Labels are sorted by key: population, then speaker.
      ASSERT_EQ(m.labels.size(), 2U);
      const std::size_t pop = m.labels[0].second == "wireless" ? 1 : 0;
      const std::size_t sp = m.labels[1].second == "sntp" ? 1 : 0;
      h = &r.owd.by_class[sp][pop];
    } else if (m.name == "fleet.category_owd_ms") {
      ASSERT_EQ(m.labels.size(), 1U);
      for (std::size_t c = 0; c < r.owd.by_category.size(); ++c) {
        if (logs::category_name(static_cast<logs::ProviderCategory>(c)) ==
            m.labels[0].second) {
          h = &r.owd.by_category[c];
        }
      }
    }
    ASSERT_NE(h, nullptr) << "unexpected fleet histogram " << m.name;
    const obs::HdrHistogram both = twice(*h);
    auto buckets = both.buckets();
    buckets.emplace_back(std::numeric_limits<double>::infinity(), 0);
    EXPECT_EQ(m.count, both.count()) << m.name;
    EXPECT_EQ(m.sum, both.sum()) << m.name;
    EXPECT_EQ(m.min, both.min()) << m.name;
    EXPECT_EQ(m.max, both.max()) << m.name;
    EXPECT_EQ(m.buckets, buckets) << m.name;
  }
  // 2 client + 19 per-server + 3 server-wide counters, the invalid
  // counter, 4 speaker x population and 4 category histograms.
  EXPECT_EQ(checked, 2U + logs::kPaperServers.size() + 3U + 1U + 4U + 4U);
}

}  // namespace
}  // namespace mntp
