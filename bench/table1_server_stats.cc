// Table 1: "Summary of client statistics seen in the NTP logs."
//
// Regenerates the 19-server log dataset (downscaled 1:2000) through the
// synthetic generator, runs the §3.1 analysis pipeline over it, and
// prints the table with both generated counts and the scale-corrected
// estimates next to the paper's published values.
#include <cstdio>

#include "common.h"
#include "logs/analyze.h"
#include "logs/generate.h"

using namespace mntp;

int main(int argc, char** argv) {
  bench::reject_unknown_flags(argc, argv);
  std::printf("== Table 1: summary of client statistics seen in the NTP logs ==\n");
  const double scale = 1.0 / 2000.0;
  logs::LogGenerator generator({.scale = scale}, core::Rng(1));
  const auto all_logs = generator.generate_all();

  core::TextTable table({"Server", "Stratum", "IP", "Clients(gen)",
                         "Clients(est)", "Clients(paper)", "Meas(gen)",
                         "Meas(est)", "Meas(paper)", "SNTP%"});
  bench::Checks checks;
  std::uint64_t est_meas_total = 0;
  for (const auto& log : all_logs) {
    const logs::ServerStats stats = logs::LogAnalyzer::server_stats(log);
    const auto est_clients =
        static_cast<std::uint64_t>(stats.unique_clients / scale);
    // Estimated total measurements: the generator caps stored OWD samples
    // but counts all requests, so request totals scale back directly.
    const auto est_meas =
        static_cast<std::uint64_t>(static_cast<double>(stats.total_measurements) / scale);
    est_meas_total += est_meas;
    table.add_row({stats.server_id, core::fmt_int(stats.stratum),
                   log.spec.ipv6 ? "v4/v6" : "v4",
                   core::fmt_count(stats.unique_clients),
                   core::fmt_count(est_clients),
                   core::fmt_count(log.spec.unique_clients),
                   core::fmt_count(stats.total_measurements),
                   core::fmt_count(est_meas),
                   core::fmt_count(log.spec.total_measurements),
                   core::fmt_double(stats.sntp_share() * 100.0, 1)});

    // Client counts must scale back to within sampling error of Table 1
    // (at least 1 client is generated even for tiny servers).
    if (log.spec.unique_clients > 10000) {
      const double rel_err =
          std::abs(static_cast<double>(est_clients) -
                   static_cast<double>(log.spec.unique_clients)) /
          static_cast<double>(log.spec.unique_clients);
      checks.expect(rel_err < 0.25,
                    std::string(log.spec.id) + " client count within 25% after rescale");
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper totals: 209,447,922 measurements across 19 servers\n");
  std::printf("estimated total from generated logs: %s\n",
              core::fmt_count(est_meas_total).c_str());

  // Order-of-magnitude check on the measurement volume (the per-client
  // request distribution is heavy-tailed, so the factor is loose).
  checks.expect(est_meas_total > 209'447'922ull / 5 &&
                    est_meas_total < 209'447'922ull * 5,
                "total measurement volume within 5x of the paper");
  return checks.finish("Table 1");
}
