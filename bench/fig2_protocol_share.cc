// Figure 2: percentage of clients using NTP vs SNTP — across the 19 NTP
// servers (left) and across the top-25 service providers seen at SU1
// (right).
//
// Paper claims reproduced: a majority of clients at every public server
// speak SNTP; the ISP-internal servers (CI1-4, EN1-2) are the exception;
// over 95% of mobile-provider clients use SNTP.
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "logs/analyze.h"
#include "logs/generate.h"

using namespace mntp;

int main(int argc, char** argv) {
  bench::reject_unknown_flags(argc, argv);
  std::printf("== Figure 2: NTP vs SNTP share per server and per provider ==\n");
  logs::LogGenerator generator({.scale = 1.0 / 100.0}, core::Rng(3));
  bench::Checks checks;

  std::printf("\n-- per server (left panel) --\n");
  core::TextTable per_server({"Server", "Clients", "SNTP%", "NTP%"});
  for (std::size_t i = 0; i < logs::kPaperServers.size(); ++i) {
    const auto log = generator.generate(i);
    const auto stats = logs::LogAnalyzer::server_stats(log);
    per_server.add_row({stats.server_id,
                        core::fmt_int(static_cast<long long>(stats.unique_clients)),
                        core::fmt_double(stats.sntp_share() * 100.0, 1),
                        core::fmt_double((1.0 - stats.sntp_share()) * 100.0, 1)});
    if (log.spec.isp_internal && stats.unique_clients >= 3) {
      checks.expect(stats.sntp_share() < 0.6,
                    stats.server_id + " (ISP-internal) is NTP-heavy");
    } else if (!log.spec.isp_internal && stats.unique_clients >= 30) {
      checks.expect(stats.sntp_share() > 0.5,
                    stats.server_id + " (public) majority-SNTP");
    }
  }
  std::printf("%s", per_server.render().c_str());

  std::printf("\n-- top-25 providers at SU1 (right panel) --\n");
  const auto su1 = generator.generate(14);
  const auto providers = logs::LogAnalyzer::provider_owd_stats(su1, 5);
  core::TextTable per_provider({"Provider", "Category", "Clients", "SNTP%"});
  for (const auto& ps : providers) {
    per_provider.add_row({ps.provider_name,
                          std::string(category_name(ps.category)),
                          core::fmt_int(static_cast<long long>(ps.clients)),
                          core::fmt_double(ps.sntp_share * 100.0, 1)});
  }
  std::printf("%s", per_provider.render().c_str());

  // ">95% of the clients of mobile providers use SNTP" — pooled across
  // the mobile providers (per-provider counts are small at 1:500 scale).
  double mobile_sntp = 0.0, mobile_n = 0.0;
  for (const auto& ps : providers) {
    if (ps.category == logs::ProviderCategory::kMobile) {
      mobile_sntp += ps.sntp_share * static_cast<double>(ps.clients);
      mobile_n += static_cast<double>(ps.clients);
    }
  }
  if (mobile_n > 0) {
    const double share = mobile_sntp / mobile_n;
    std::printf("\npooled mobile-provider SNTP share at SU1: %.1f%%\n",
                share * 100.0);
    checks.expect(share > 0.9, "mobile providers >90% SNTP (paper: >95%)");
  }
  return checks.finish("Figure 2");
}
