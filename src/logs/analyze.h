// NTP server log analysis (§3.1): the pipeline that produced Table 1 and
// Figures 1–2, operating on ServerLog records through the classifiers.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/stats.h"
#include "logs/classify.h"
#include "logs/spec.h"
#include "ntp/packet.h"

namespace mntp::logs {

/// One client observed at one server over the capture day.
struct ClientRecord {
  std::uint64_t client_id = 0;
  std::string hostname;
  std::size_t provider_index = 0;  // into kPaperProviders
  /// Representative request packet as captured on the wire.
  std::array<std::uint8_t, ntp::NtpPacket::kWireSize> request_wire{};
  /// Total requests this client issued over the day.
  std::uint32_t request_count = 0;
  /// Per-request OWD samples (ms), capped at a sampling bound; the
  /// analyzer extracts the minimum. Invalid (unsynchronized) probes are
  /// recorded as negative placeholders and must be filtered out.
  std::vector<float> owd_samples_ms;
};

/// One server's capture: the clients it saw over the day.
struct ServerLog {
  ServerSpec spec;
  std::vector<ClientRecord> clients;

  [[nodiscard]] std::uint64_t total_requests() const {
    std::uint64_t n = 0;
    for (const ClientRecord& c : clients) n += c.request_count;
    return n;
  }
};

/// Table 1 row (counts are of the rendered, downscaled population; the
/// bench scales back for display).
struct ServerStats {
  std::string server_id;
  std::uint8_t stratum = 0;
  bool ipv6 = false;
  std::size_t unique_clients = 0;
  std::uint64_t total_measurements = 0;
  std::size_t sntp_clients = 0;
  std::size_t ntp_clients = 0;

  [[nodiscard]] double sntp_share() const {
    const std::size_t n = sntp_clients + ntp_clients;
    return n ? static_cast<double>(sntp_clients) / static_cast<double>(n) : 0.0;
  }
};

/// Per-provider min-OWD statistics at one server (a Figure 1 box/CDF).
struct ProviderOwdStats {
  std::size_t provider_index = 0;
  std::string provider_name;
  ProviderCategory category{};
  std::size_t clients = 0;
  core::Summary min_owd_ms;          // distribution of per-client min OWD
  std::vector<double> min_owds_ms;   // raw values (for CDF curves)
  double sntp_share = 0.0;           // Figure 2 (right)
};

class LogAnalyzer {
 public:
  /// Table 1 statistics for one server log.
  [[nodiscard]] static ServerStats server_stats(const ServerLog& log);

  /// Per-client minimum valid OWD; nullopt when the client has no valid
  /// (synchronized) measurement. Applies the §3.1 filtering heuristic.
  [[nodiscard]] static std::optional<double> client_min_owd_ms(
      const ClientRecord& client);

  /// Figure 1: per-provider min-OWD stats at one server, providers with
  /// at least `min_clients` classified clients, ordered SP 1..SP 25.
  [[nodiscard]] static std::vector<ProviderOwdStats> provider_owd_stats(
      const ServerLog& log, std::size_t min_clients = 3);

  /// Category medians across a set of logs, indexed by ProviderCategory —
  /// the headline 40/50/250/550 ms numbers.
  [[nodiscard]] static std::array<double, 4> category_median_owd_ms(
      const std::vector<ServerLog>& logs);
};

}  // namespace mntp::logs
