// Fleet-scale throughput workload: queries/sec/core at 10^5..10^6
// simulated clients.
//
// Reproduces the server's-eye view of the paper's §3.1 measurement
// study from simulated traffic instead of parsed logs: per-server
// request totals (Table 1 shape), per-provider-category OWD quantiles
// (Figure 1 shape), the SNTP share by category (Figure 2 shape), and
// the per-(speaker, population) OWD split — and prints the fleet
// simulator's sustained simulated-queries/sec/core. That figure depends
// on the host, so it is not a check: the perf_suite `fleet_qps`
// workload gates it.
//
// Flags: --clients N --seconds S --shards K --threads T --seed S
//        --kod-limit N --fleet-out PATH (mntp_fleet_report artifact)
//        --check-determinism (re-run serially and require bit-identical
//        results; the cross-thread/shard matrix lives in
//        fleet_determinism_test)
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "common.h"
#include "core/table.h"
#include "fleet/client_fleet.h"
#include "fleet/params.h"
#include "fleet/report.h"
#include "fleet/simulator.h"
#include "logs/spec.h"

using namespace mntp;

int main(int argc, char** argv) {
  bench::BenchTelemetry telemetry("fleet_qps", argc, argv);

  fleet::FleetParams params;
  params.clients = bench::parse_size_flag(argc, argv, "--clients", 250'000);
  params.duration_s = bench::parse_double_flag(argc, argv, "--seconds", 60.0);
  params.shards = bench::parse_size_flag(argc, argv, "--shards", 64);
  params.seed = bench::parse_size_flag(argc, argv, "--seed", 1);
  params.kod_limit_per_slice =
      bench::parse_size_flag(argc, argv, "--kod-limit", 1'500);
  const std::size_t threads = bench::parse_threads(argc, argv, 1);
  const std::string fleet_out = bench::parse_flag(argc, argv, "--fleet-out");
  const bool check_determinism =
      bench::parse_bool_flag(argc, argv, "--check-determinism");
  bench::reject_unknown_flags(argc, argv);

  std::printf("fleet_qps: %llu clients, %.0f s, %zu shards, %zu thread(s)\n\n",
              static_cast<unsigned long long>(params.clients),
              params.duration_s, params.shards, threads);

  // An out-of-range --clients, --seconds or --shards is a usage error:
  // the library's message names the parameter.
  std::shared_ptr<const fleet::ClientFleet> fleet;
  std::optional<fleet::Simulator> sim;
  try {
    fleet = std::make_shared<const fleet::ClientFleet>(
        fleet::ClientFleet::build(params));
    sim.emplace(fleet, params);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "fleet_qps: %s\n", e.what());
    return 2;
  }
  fleet::FleetResult result = sim->run(threads);

  // --- Table 1 shape: per-server request totals --------------------------
  {
    core::TextTable table({"server", "stratum", "requests", "share_%"});
    for (std::size_t s = 0; s < result.server_requests.size(); ++s) {
      const logs::ServerSpec& spec = logs::kPaperServers[s];
      table.add_row({std::string(spec.id), core::fmt_int(spec.stratum),
                     core::fmt_count(result.server_requests[s]),
                     core::fmt_double(100.0 *
                                          static_cast<double>(
                                              result.server_requests[s]) /
                                          static_cast<double>(std::max<
                                              std::uint64_t>(1,
                                                             result.arrived)),
                                      1)});
    }
    std::printf("Per-server requests (Table 1 shape):\n%s\n",
                table.render().c_str());
  }

  // --- Figure 1 shape: per-category OWD quantiles ------------------------
  {
    core::TextTable table(
        {"category", "count", "p50_ms", "p90_ms", "p99_ms"});
    for (std::size_t c = 0; c < result.owd.by_category.size(); ++c) {
      const obs::HdrHistogram& h = result.owd.by_category[c];
      table.add_row(
          {std::string(logs::category_name(
               static_cast<logs::ProviderCategory>(c))),
           core::fmt_count(h.count()), core::fmt_double(h.quantile(0.5), 1),
           core::fmt_double(h.quantile(0.9), 1),
           core::fmt_double(h.quantile(0.99), 1)});
    }
    std::printf("Measured OWD by provider category (Figure 1 shape):\n%s\n",
                table.render().c_str());
  }

  // --- Figure 2 shape: SNTP share by category ----------------------------
  std::array<std::uint64_t, 4> cat_clients{};
  std::array<std::uint64_t, 4> cat_sntp{};
  for (const fleet::ClientRow& row : fleet->rows()) {
    const auto c = static_cast<std::size_t>(fleet::category_of(row.provider));
    ++cat_clients[c];
    if (fleet::speaker_of(row.traits) == fleet::Speaker::kSntp) ++cat_sntp[c];
  }
  {
    core::TextTable table({"category", "clients", "sntp_share_%"});
    for (std::size_t c = 0; c < 4; ++c) {
      table.add_row(
          {std::string(logs::category_name(
               static_cast<logs::ProviderCategory>(c))),
           core::fmt_count(cat_clients[c]),
           core::fmt_double(100.0 * static_cast<double>(cat_sntp[c]) /
                                static_cast<double>(
                                    std::max<std::uint64_t>(1,
                                                            cat_clients[c])),
                            1)});
    }
    std::printf("SNTP share by provider category (Figure 2 shape):\n%s\n",
                table.render().c_str());
  }

  // --- Speaker x population OWD ------------------------------------------
  {
    core::TextTable table(
        {"speaker", "population", "count", "p50_ms", "p99_ms"});
    for (fleet::Speaker sp : {fleet::Speaker::kNtp, fleet::Speaker::kSntp}) {
      for (fleet::Population pop :
           {fleet::Population::kWired, fleet::Population::kWireless}) {
        const obs::HdrHistogram& h =
            result.owd.by_class[static_cast<std::size_t>(sp)]
                               [static_cast<std::size_t>(pop)];
        table.add_row({std::string(fleet::speaker_name(sp)),
                       std::string(fleet::population_name(pop)),
                       core::fmt_count(h.count()),
                       core::fmt_double(h.quantile(0.5), 1),
                       core::fmt_double(h.quantile(0.99), 1)});
      }
    }
    std::printf("Measured OWD by speaker x population:\n%s\n",
                table.render().c_str());
  }

  std::printf("Totals: %llu queries (%llu arrived, %llu dropped), "
              "%llu KoD, %llu batches, cache %llu hit / %llu miss, "
              "OWD %llu valid / %llu invalid\n",
              static_cast<unsigned long long>(result.queries),
              static_cast<unsigned long long>(result.arrived),
              static_cast<unsigned long long>(result.dropped),
              static_cast<unsigned long long>(result.kod),
              static_cast<unsigned long long>(result.batches),
              static_cast<unsigned long long>(result.cache_hits),
              static_cast<unsigned long long>(result.cache_misses),
              static_cast<unsigned long long>(result.owd.valid),
              static_cast<unsigned long long>(result.owd.invalid));
  std::printf("Throughput: %.3f s wall, %.0f queries/s, "
              "%.0f queries/s/core (%zu thread(s))\n\n",
              result.wall_s, result.qps, result.qps_per_core, result.threads);

  if (!fleet_out.empty()) {
    if (!fleet::write_fleet_report(fleet_out, params, result)) {
      std::fprintf(stderr, "fleet_qps: failed to write %s\n",
                   fleet_out.c_str());
      return 1;
    }
    std::printf("fleet report written to %s\n", fleet_out.c_str());
  }

  bench::Checks checks;
  checks.expect(result.queries == result.arrived + result.dropped,
                "conservation: queries == arrived + dropped");
  std::uint64_t server_sum = 0;
  for (const std::uint64_t r : result.server_requests) server_sum += r;
  checks.expect(server_sum == result.arrived,
                "conservation: sum(server requests) == arrived");
  checks.expect(result.cache_hits + result.cache_misses ==
                    result.arrived - result.kod,
                "conservation: cache hits + misses == arrived - kod");
  checks.expect(result.owd.valid + result.owd.invalid ==
                    result.arrived - result.kod,
                "conservation: owd valid + invalid == arrived - kod");
  const double mobile_sntp_share =
      static_cast<double>(cat_sntp[3]) /
      static_cast<double>(std::max<std::uint64_t>(1, cat_clients[3]));
  checks.expect(mobile_sntp_share >= 0.90,
                "population: mobile providers are >=90% SNTP (Figure 2)");
  const double cloud_p50 = result.owd.by_category[0].quantile(0.5);
  const double isp_p50 = result.owd.by_category[1].quantile(0.5);
  const double broadband_p50 = result.owd.by_category[2].quantile(0.5);
  const double mobile_p50 = result.owd.by_category[3].quantile(0.5);
  checks.expect(cloud_p50 < isp_p50 && isp_p50 < broadband_p50 &&
                    broadband_p50 < mobile_p50,
                "OWD ordering: cloud < isp < broadband < mobile medians "
                "(Figure 1)");
  checks.expect(result.owd.invalid > 0,
                "filter: unsynchronized clients produce invalid OWDs");
  checks.expect(result.cache_hits > result.cache_misses,
                "cache: bucket reuse dominates at fleet request rates");

  if (check_determinism) {
    fleet::FleetResult serial = sim->run(1);
    checks.expect(result.deterministic_equal(serial),
                  "determinism: threaded run bit-identical to serial");
  }

  const bool written = telemetry.finalize(
      core::TimePoint::epoch() +
      core::Duration::from_seconds(params.duration_s));
  const int status = checks.finish("fleet_qps");
  return written ? status : 1;
}
