// Figure 1: minimum one-way delays of clients per service provider at
// three NTP servers (AG1, JW2, SU1) — box statistics (left) and CDFs
// (right).
//
// Paper claims reproduced: four latency regimes — cloud/hosting ~40 ms,
// ISPs ~50 ms, broadband ~250 ms, mobile ~550 ms with huge interquartile
// ranges and a near-linear CDF; 50% of mobile clients above 400 ms.
//
// The logs are the three servers' captures of the §3.1 client population
// (fleet::section31_params: 1:20 of Table 1's unique clients, seed 1).
#include <cstdio>

#include "common.h"
#include "fleet/client_fleet.h"
#include "fleet/server_log.h"
#include "logs/analyze.h"

using namespace mntp;

namespace {

constexpr std::size_t kServers[] = {0, 8, 14};  // AG1, JW2, SU1

void print_server(const logs::ServerLog& log,
                  const std::vector<logs::ProviderOwdStats>& stats) {
  std::printf("\n-- server %s: per-provider min-OWD (ms) --\n",
              std::string(log.spec.id).c_str());
  core::TextTable table({"Provider", "Category", "Clients", "p25", "Median",
                         "p75", "p90"});
  for (const auto& ps : stats) {
    table.add_row({ps.provider_name, std::string(category_name(ps.category)),
                   core::fmt_int(static_cast<long long>(ps.clients)),
                   core::fmt_double(ps.min_owd_ms.p25, 0),
                   core::fmt_double(ps.min_owd_ms.median, 0),
                   core::fmt_double(ps.min_owd_ms.p75, 0),
                   core::fmt_double(ps.min_owd_ms.p90, 0)});
  }
  std::printf("%s", table.render().c_str());

  // CDF curves for one provider per category (the figure's right column).
  std::vector<core::Series> curves;
  const char markers[] = {'c', 'i', 'b', 'm'};
  bool used[4] = {false, false, false, false};
  for (const auto& ps : stats) {
    const auto cat = static_cast<std::size_t>(ps.category);
    if (used[cat] || ps.min_owds_ms.size() < 20) continue;
    used[cat] = true;
    const core::Cdf cdf(ps.min_owds_ms);
    core::Series s;
    s.label = ps.provider_name + " (" +
              std::string(category_name(ps.category)) + ")";
    s.marker = markers[cat];
    for (const auto& [x, y] : cdf.curve(60)) s.points.emplace_back(x, y);
    curves.push_back(std::move(s));
  }
  if (!curves.empty()) {
    bench::plot_offsets("CDF of per-client min OWD (x: ms, y: fraction)",
                        curves);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::reject_unknown_flags(argc, argv);
  std::printf("== Figure 1: min OWDs per service provider (AG1, JW2, SU1) ==\n");
  const fleet::FleetParams params = fleet::section31_params();
  const fleet::ClientFleet population = fleet::ClientFleet::build(params);

  bench::Checks checks;
  std::vector<std::vector<logs::ProviderOwdStats>> per_server;
  std::vector<logs::ServerLog> kept;
  for (std::size_t idx : kServers) {
    kept.push_back(fleet::server_log(population, params, idx));
    per_server.push_back(logs::LogAnalyzer::provider_owd_stats(kept.back(), 10));
    print_server(kept.back(), per_server.back());
  }

  // Category medians across the three servers.
  const auto medians = logs::LogAnalyzer::category_median_owd_ms(kept);
  std::printf("\ncategory medians (ms): cloud %.0f, isp %.0f, broadband %.0f, "
              "mobile %.0f\n",
              medians[0], medians[1], medians[2], medians[3]);
  checks.expect_near(medians[0], 40.0, 20.0, "cloud median ~40 ms");
  checks.expect_near(medians[1], 50.0, 25.0, "ISP median ~50 ms");
  checks.expect_near(medians[2], 250.0, 100.0, "broadband median ~250 ms");
  checks.expect_near(medians[3], 550.0, 150.0, "mobile median ~550 ms");
  checks.expect(medians[0] < medians[1] && medians[1] < medians[2] &&
                    medians[2] < medians[3],
                "latency regimes ordered cloud < isp < broadband < mobile");

  // "For all servers, 50% of the hosts from the three mobile providers
  // exhibit a latency of more than 400ms" — per-server mobile medians.
  for (std::size_t s = 0; s < per_server.size(); ++s) {
    std::vector<double> mobile_owds;
    for (const auto& ps : per_server[s]) {
      if (ps.category == logs::ProviderCategory::kMobile) {
        mobile_owds.insert(mobile_owds.end(), ps.min_owds_ms.begin(),
                           ps.min_owds_ms.end());
      }
    }
    if (mobile_owds.size() >= 20) {
      checks.expect(core::percentile(mobile_owds, 50) > 400.0,
                    "mobile median > 400 ms at server " +
                        std::string(kept[s].spec.id));
    }
  }

  // Mobile CDF linearity (the "striking" linear trend): the middle of the
  // CDF rises roughly uniformly — quartile gaps of similar magnitude.
  for (const auto& ps : per_server[0]) {
    if (ps.category != logs::ProviderCategory::kMobile || ps.clients < 50) {
      continue;
    }
    const double lower_gap = ps.min_owd_ms.median - ps.min_owd_ms.p25;
    const double upper_gap = ps.min_owd_ms.p75 - ps.min_owd_ms.median;
    checks.expect(lower_gap > 0 && upper_gap > 0 &&
                      lower_gap / upper_gap > 0.4 && lower_gap / upper_gap < 2.5,
                  ps.provider_name + " CDF near-linear (balanced quartiles)");
    break;
  }
  return checks.finish("Figure 1");
}
