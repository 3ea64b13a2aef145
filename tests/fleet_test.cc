// Fleet layer unit tests: population build calibration and the
// simulator's conservation / mechanism invariants. The binary replaces
// global operator new with a malloc wrapper that can refuse large
// requests (see the id-width test).
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/client_fleet.h"
#include "fleet/params.h"
#include "fleet/report.h"
#include "fleet/simulator.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "support/read_back.h"

namespace {
// Largest single allocation operator new grants; see the id-width test.
std::atomic<std::size_t> g_alloc_cap{std::numeric_limits<std::size_t>::max()};
}  // namespace

void* operator new(std::size_t size) {
  const bool granted = size <= g_alloc_cap.load(std::memory_order_relaxed);
  if (void* p = granted ? std::malloc(size == 0 ? 1 : size) : nullptr) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line, so the compiler pairs each delete with operator new
// rather than seeing a bare free() of a new'd pointer.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mntp {
namespace {

fleet::FleetParams small_params() {
  fleet::FleetParams p;
  p.clients = 20'000;
  p.duration_s = 30.0;
  p.shards = 8;
  p.seed = 42;
  return p;
}

TEST(ClientFleet, BuildMatchesPopulationTargets) {
  const fleet::FleetParams p = small_params();
  const fleet::ClientFleet fleet = fleet::ClientFleet::build(p);
  ASSERT_EQ(fleet.size(), p.clients);
  EXPECT_EQ(fleet.sntp_clients() + fleet.ntp_clients(), p.clients);
  EXPECT_EQ(fleet.wireless_clients() + fleet.wired_clients(), p.clients);
  // Most of the paper population speaks SNTP; both classes are present.
  EXPECT_GT(fleet.sntp_clients(), p.clients / 2);
  EXPECT_GT(fleet.ntp_clients(), 0U);
  EXPECT_GT(fleet.wireless_clients(), 0U);
  // Mobile-provider clients are always wireless.
  for (std::uint64_t i = 0; i < fleet.size(); ++i) {
    const fleet::ClientRow& row = fleet.rows()[i];
    if (fleet::category_of(row.provider) == logs::ProviderCategory::kMobile) {
      EXPECT_EQ(fleet::population_of(row.traits), fleet::Population::kWireless);
    }
    EXPECT_GE(row.base_owd_ms, 1.0F);
    EXPECT_LE(row.base_owd_ms, 997.0F);
    EXPECT_LT(fleet.init_next_poll_ns()[i], fleet.init_interval_ns()[i]);
  }
}

TEST(ClientFleet, BuildIsDeterministic) {
  const fleet::FleetParams p = small_params();
  const fleet::ClientFleet a = fleet::ClientFleet::build(p);
  const fleet::ClientFleet b = fleet::ClientFleet::build(p);
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.init_next_poll_ns(), b.init_next_poll_ns());
}

TEST(ClientFleet, RejectsIdsWiderThan32BitsBeforeAllocating) {
  // Ids are 32-bit in the calendar wheel and in ArrivalRecord. While the
  // cap is armed, operator new refuses any request above 1 MiB, so a
  // build that allocated the population before validating fails with
  // std::bad_alloc instead of touching gigabytes.
  fleet::FleetParams p = small_params();
  p.clients = (std::uint64_t{1} << 32) + 1;
  g_alloc_cap.store(std::size_t{1} << 20);
  EXPECT_THROW((void)fleet::ClientFleet::build(p), std::invalid_argument);
  g_alloc_cap.store(std::numeric_limits<std::size_t>::max());
}

TEST(Simulator, ConservationInvariantsHold) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  const fleet::FleetParams p = small_params();
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult r = sim.run(2);
  EXPECT_GT(r.queries, 0U);
  EXPECT_EQ(r.queries, r.arrived + r.dropped);
  std::uint64_t server_sum = 0;
  for (const std::uint64_t s : r.server_requests) server_sum += s;
  EXPECT_EQ(server_sum, r.arrived);
  EXPECT_EQ(r.cache_hits + r.cache_misses, r.arrived - r.kod);
  EXPECT_EQ(r.owd.valid + r.owd.invalid, r.arrived - r.kod);
  // Unsynchronized clients (6% of the population) produce out-of-window
  // measurements.
  EXPECT_GT(r.owd.invalid, 0U);
  // The histograms tally exactly the valid measurements.
  std::uint64_t class_count = 0;
  for (const auto& row : r.owd.by_class) {
    for (const auto& h : row) class_count += h.count();
  }
  std::uint64_t cat_count = 0;
  for (const auto& h : r.owd.by_category) cat_count += h.count();
  EXPECT_EQ(class_count, r.owd.valid);
  EXPECT_EQ(cat_count, r.owd.valid);
}

TEST(Simulator, RepeatedRunsAreIdentical) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  const fleet::FleetParams p = small_params();
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult a = sim.run(1);
  const fleet::FleetResult b = sim.run(1);
  EXPECT_TRUE(a.deterministic_equal(b));
}

TEST(Simulator, KodRateLimitTriggersAndBacksClientsOff) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  fleet::FleetParams p = small_params();
  p.kod_limit_per_slice = 10;  // tiny: nearly every server saturates
  // KoD backoff takes effect one poll late (the next poll is scheduled
  // at send time, before the KoD response lands), so give it room to
  // show up in the totals.
  p.duration_s = 150.0;
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult r = sim.run(1);
  EXPECT_GT(r.kod, 0U);
  EXPECT_EQ(r.cache_hits + r.cache_misses, r.arrived - r.kod);

  // Backoff reduces the query rate versus an unlimited run.
  fleet::FleetParams open = small_params();
  open.duration_s = 150.0;
  open.kod_limit_per_slice = 1'000'000;
  fleet::Simulator open_sim(std::make_shared<const fleet::ClientFleet>(
                                fleet::ClientFleet::build(open)),
                            open);
  const fleet::FleetResult r_open = open_sim.run(1);
  EXPECT_EQ(r_open.kod, 0U);
  EXPECT_LT(r.queries, r_open.queries);
}

TEST(Simulator, ResponseCacheHitRateTracksBucketSize) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  fleet::FleetParams coarse = small_params();
  coarse.cache_bucket_ms = 10'000.0;  // slices-long buckets: mostly hits
  fleet::Simulator coarse_sim(std::make_shared<const fleet::ClientFleet>(
                                  fleet::ClientFleet::build(coarse)),
                              coarse);
  const fleet::FleetResult r_coarse = coarse_sim.run(1);
  EXPECT_GT(r_coarse.cache_hits, r_coarse.cache_misses);

  fleet::FleetParams fine = small_params();
  fine.cache_bucket_ms = 0.001;  // microsecond buckets: mostly misses
  fleet::Simulator fine_sim(std::make_shared<const fleet::ClientFleet>(
                                fleet::ClientFleet::build(fine)),
                            fine);
  const fleet::FleetResult r_fine = fine_sim.run(1);
  EXPECT_GT(r_fine.cache_misses, r_fine.cache_hits);
}

TEST(Simulator, RejectsSliceLongerThanMinPoll) {
  fleet::FleetParams p = small_params();
  p.slice_s = 20.0;  // >= sntp_poll_min_s
  const auto fleet =
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p));
  EXPECT_THROW(fleet::Simulator(fleet, p), std::invalid_argument);
}

TEST(FleetReport, RendersAndRoundTripsKeyFields) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  const fleet::FleetParams p = small_params();
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult r = sim.run(1);
  const std::string doc = fleet::render_fleet_report(p, r);
  EXPECT_NE(doc.find("\"kind\": \"mntp_fleet_report\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"qps_per_core\""), std::string::npos);
  EXPECT_NE(doc.find("\"category\": \"mobile\""), std::string::npos);
  EXPECT_NE(doc.find("\"speaker\": \"sntp\""), std::string::npos);
  EXPECT_NE(doc.find("\"id\": \"MW2\""), std::string::npos);

  // The strict reader balances the report's ledgers; its summary carries
  // the written client and query counts. Nothing decodes a fleet report.
  EXPECT_EQ(test::validate_back("fleet_report.json", doc),
            "fleet: " + std::to_string(p.clients) + " clients, " +
                std::to_string(r.queries) + " queries");
  EXPECT_FALSE(
      obs::read_artifact(test::temp_path("fleet_report.json")).ok());
}

TEST(FleetReport, WriteToFullDeviceFails) {
  // The report is smaller than the stream's buffer, so the device's
  // refusal only shows when the last bytes are flushed.
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  const fleet::FleetParams p = small_params();
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult r = sim.run(1);
  EXPECT_FALSE(fleet::write_fleet_report("/dev/full", p, r));
}

TEST(FleetMetrics, RegistryCountersMatchResultTotals) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  const fleet::FleetParams p = small_params();
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult r = sim.run(2);
  std::uint64_t queries = 0;
  std::uint64_t requests = 0;
  std::uint64_t invalid = 0;
  for (const obs::MetricSnapshot& m : tel.metrics().snapshot()) {
    if (m.kind != obs::MetricSnapshot::Kind::kCounter) continue;
    const auto v = static_cast<std::uint64_t>(m.value);
    if (m.name == "fleet.client.queries") queries += v;
    if (m.name == "fleet.server.requests") requests += v;
    if (m.name == "fleet.owd.invalid") invalid += v;
  }
  EXPECT_EQ(queries, r.queries);
  EXPECT_EQ(requests, r.arrived);
  EXPECT_EQ(invalid, r.owd.invalid);
}

}  // namespace
}  // namespace mntp
