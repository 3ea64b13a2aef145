#include "logs/analyze.h"

#include <algorithm>
#include <map>

#include "obs/metric_names.h"
#include "obs/profiler.h"

namespace mntp::logs {

ServerStats LogAnalyzer::server_stats(const ServerLog& log) {
  obs::ProfileScope profile(obs::spans::kLogsClassify);
  ServerStats s;
  s.server_id = std::string(log.spec.id);
  s.stratum = log.spec.stratum;
  s.ipv6 = log.spec.ipv6;
  s.unique_clients = log.clients.size();
  for (const ClientRecord& c : log.clients) {
    s.total_measurements += c.request_count;
    const auto packet = ntp::NtpPacket::parse(c.request_wire);
    if (!packet.ok()) continue;  // corrupt capture: unclassifiable
    if (classify_protocol(packet.value()) == Protocol::kSntp) {
      ++s.sntp_clients;
    } else {
      ++s.ntp_clients;
    }
  }
  return s;
}

std::optional<double> LogAnalyzer::client_min_owd_ms(const ClientRecord& client) {
  std::optional<double> best;
  for (const float owd : client.owd_samples_ms) {
    if (owd < 0.0F) continue;  // unsynchronized probe, filtered
    const double v = static_cast<double>(owd);
    if (!best || v < *best) best = v;
  }
  return best;
}

std::vector<ProviderOwdStats> LogAnalyzer::provider_owd_stats(
    const ServerLog& log, std::size_t min_clients) {
  obs::ProfileScope profile(obs::spans::kLogsClassify);
  std::map<std::size_t, ProviderOwdStats> by_provider;
  std::map<std::size_t, std::size_t> sntp_count;

  for (const ClientRecord& c : log.clients) {
    // Classification is from the hostname, as in the paper — not from
    // the generator's ground truth.
    const auto provider = provider_from_hostname(c.hostname);
    if (!provider) continue;
    const auto min_owd = client_min_owd_ms(c);
    if (!min_owd) continue;

    ProviderOwdStats& ps = by_provider[*provider];
    if (ps.clients == 0) {
      ps.provider_index = *provider;
      ps.provider_name = std::string(kPaperProviders[*provider].name);
      ps.category = kPaperProviders[*provider].category;
    }
    ++ps.clients;
    ps.min_owds_ms.push_back(*min_owd);

    const auto packet = ntp::NtpPacket::parse(c.request_wire);
    if (packet.ok() &&
        classify_protocol(packet.value()) == Protocol::kSntp) {
      ++sntp_count[*provider];
    }
  }

  std::vector<ProviderOwdStats> out;
  for (auto& [idx, ps] : by_provider) {
    if (ps.clients < min_clients) continue;
    ps.min_owd_ms = core::summarize(ps.min_owds_ms);
    ps.sntp_share =
        static_cast<double>(sntp_count[idx]) / static_cast<double>(ps.clients);
    out.push_back(std::move(ps));
  }
  std::sort(out.begin(), out.end(),
            [](const ProviderOwdStats& a, const ProviderOwdStats& b) {
              return a.provider_index < b.provider_index;
            });
  return out;
}

std::array<double, 4> LogAnalyzer::category_median_owd_ms(
    const std::vector<ServerLog>& logs) {
  std::array<std::vector<double>, 4> values;
  for (const ServerLog& log : logs) {
    for (const ClientRecord& c : log.clients) {
      const auto category = category_from_hostname(c.hostname);
      if (!category) continue;
      const auto min_owd = client_min_owd_ms(c);
      if (!min_owd) continue;
      values[static_cast<std::size_t>(*category)].push_back(*min_owd);
    }
  }
  std::array<double, 4> medians{};
  for (std::size_t i = 0; i < values.size(); ++i) {
    medians[i] = values[i].empty() ? 0.0 : core::percentile(values[i], 50.0);
  }
  return medians;
}

}  // namespace mntp::logs
