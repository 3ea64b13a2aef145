// NTP server log analysis walkthrough (§3.1): render a day of one
// server's log from the §3.1 client population, then run each stage of
// the measurement pipeline the paper describes — protocol classification
// from raw packets, hostname-based provider classification,
// synchronization-state filtering, and min-OWD extraction — printing what
// each stage sees.
#include <cstdio>

#include "core/stats.h"
#include "fleet/client_fleet.h"
#include "fleet/server_log.h"
#include "logs/analyze.h"
#include "logs/classify.h"

using namespace mntp;

int main() {
  // The population Table 1 and Figures 1-2 analyse (1:20 of Table 1's
  // unique clients, seed 1), seen from SU1 (~1,050 clients).
  const fleet::FleetParams params = fleet::section31_params();
  const fleet::ClientFleet population = fleet::ClientFleet::build(params);
  const logs::ServerLog log = fleet::server_log(population, params, 14);
  std::printf("rendered log for %s: %zu clients, %llu requests\n",
              std::string(log.spec.id).c_str(), log.clients.size(),
              static_cast<unsigned long long>(log.total_requests()));

  // Stage 1: protocol classification straight from the captured packets.
  std::size_t sntp = 0, ntp_full = 0, unparseable = 0;
  for (const auto& c : log.clients) {
    const auto packet = ntp::NtpPacket::parse(c.request_wire);
    if (!packet.ok()) {
      ++unparseable;
      continue;
    }
    if (logs::classify_protocol(packet.value()) == logs::Protocol::kSntp) {
      ++sntp;
    } else {
      ++ntp_full;
    }
  }
  std::printf("\nstage 1 - protocol from wire capture: %zu SNTP, %zu NTP, "
              "%zu unparseable\n",
              sntp, ntp_full, unparseable);

  // Stage 2: provider classification from hostnames.
  std::size_t classified = 0, unclassified = 0;
  std::size_t per_category[4] = {0, 0, 0, 0};
  for (const auto& c : log.clients) {
    if (const auto cat = logs::category_from_hostname(c.hostname)) {
      ++classified;
      ++per_category[static_cast<std::size_t>(*cat)];
    } else {
      ++unclassified;
    }
  }
  std::printf("stage 2 - hostname classification: %zu classified "
              "(cloud %zu / isp %zu / broadband %zu / mobile %zu), %zu not\n",
              classified, per_category[0], per_category[1], per_category[2],
              per_category[3], unclassified);

  // Stage 3: synchronization-state filtering + min-OWD extraction.
  std::size_t invalid_probes = 0, valid_probes = 0;
  for (const auto& c : log.clients) {
    for (float owd : c.owd_samples_ms) {
      (owd < 0 ? invalid_probes : valid_probes) += 1;
    }
  }
  std::printf("stage 3 - OWD validity filter: %zu valid probes kept, "
              "%zu unsynchronized probes discarded\n",
              valid_probes, invalid_probes);

  // Stage 4: the per-provider analysis (Figure 1 material).
  const auto stats = logs::LogAnalyzer::provider_owd_stats(log, 3);
  std::printf("\nstage 4 - per-provider min-OWD at %s:\n",
              std::string(log.spec.id).c_str());
  for (const auto& ps : stats) {
    std::printf("  %-6s %-10s clients %3zu  median %5.0f ms  IQR [%4.0f, %4.0f]"
                "  SNTP %.0f%%\n",
                ps.provider_name.c_str(),
                std::string(category_name(ps.category)).c_str(), ps.clients,
                ps.min_owd_ms.median, ps.min_owd_ms.p25, ps.min_owd_ms.p75,
                ps.sntp_share * 100.0);
  }

  // Table-1-style roll-up.
  const auto server_stats = logs::LogAnalyzer::server_stats(log);
  std::printf("\nroll-up: %s stratum %u, %zu clients, %llu measurements, "
              "%.1f%% SNTP\n",
              server_stats.server_id.c_str(), server_stats.stratum,
              server_stats.unique_clients,
              static_cast<unsigned long long>(server_stats.total_measurements),
              server_stats.sntp_share() * 100.0);
  return 0;
}
