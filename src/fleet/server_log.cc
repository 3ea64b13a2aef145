#include "fleet/server_log.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/ntp_timestamp.h"
#include "core/rng.h"
#include "obs/metric_names.h"
#include "obs/profiler.h"

namespace mntp::fleet {

namespace {
constexpr std::uint64_t kCaptureStream = 3;  // see client_fleet.cc seed map
// Requests beyond this many per client are counted but not sampled.
constexpr std::size_t kMaxOwdSamples = 24;
}  // namespace

FleetParams section31_params(double scale) {
  std::uint64_t table1_clients = 0;
  for (const logs::ServerSpec& s : logs::kPaperServers) {
    table1_clients += s.unique_clients;
  }
  return FleetParams{
      .clients = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(table1_clients) * scale)),
      .seed = 1,
  };
}

logs::ServerLog server_log(const ClientFleet& fleet, const FleetParams& params,
                           std::size_t server) {
  obs::ProfileScope profile(obs::spans::kLogsGenerate);
  const logs::ServerSpec& spec = logs::kPaperServers.at(server);
  logs::ServerLog log{.spec = spec, .clients = {}};
  const double log_requests_per_client =
      std::log(std::max(1.0, static_cast<double>(spec.total_measurements) /
                                 static_cast<double>(spec.unique_clients)));
  const std::uint64_t capture_root =
      core::derive_stream_seed(params.seed, kCaptureStream);
  const std::vector<ClientRow>& rows = fleet.rows();

  // A tight first pass picks out the server's rows, so the render loop
  // below runs only over them (a small server holds a fraction of a
  // percent of the fleet).
  std::vector<std::uint32_t> homed;
  for (std::size_t id = 0; id < rows.size(); ++id) {
    if (rows[id].server == server) {
      homed.push_back(static_cast<std::uint32_t>(id));
    }
  }
  log.clients.reserve(homed.size());
  for (const std::uint32_t id : homed) {
    const ClientRow& row = rows[id];
    core::Rng rng(core::derive_stream_seed(capture_root, id));
    const logs::ProviderSpec& provider = logs::kPaperProviders[row.provider];
    logs::ClientRecord& c = log.clients.emplace_back();
    c.client_id = id;
    c.provider_index = row.provider;
    c.hostname = "host" + std::to_string(id) + "." +
                 std::string(provider.keyword) + ".example.org";

    // The packet carries the speaker: SNTP requests zero everything but
    // the first octet and the transmit time; NTP requests fill in the
    // client's poll exponent, precision and origin.
    const auto xmt = core::NtpTimestamp::from_parts(
        static_cast<std::uint32_t>(core::kSimEpochNtpSeconds +
                                   rng.uniform_int(0, 86'400)),
        static_cast<std::uint32_t>(rng.next_u64()));
    const ntp::NtpPacket req =
        speaker_of(row.traits) == Speaker::kSntp
            ? ntp::NtpPacket::make_sntp_request(xmt)
            : ntp::NtpPacket::make_ntp_request(
                  xmt,
                  static_cast<std::int8_t>(std::ilogb(
                      static_cast<double>(fleet.init_interval_ns()[id]) /
                      1e9)),
                  core::NtpTimestamp::from_parts(1, 1));
    req.serialize(c.request_wire);

    // Request volume: heavy-tailed around Table 1's measurements per
    // client (a few chatty ntpd instances dominate the counts).
    c.request_count = static_cast<std::uint32_t>(
        std::max(1.0, rng.lognormal(log_requests_per_client - 0.5, 1.0)));

    const std::size_t samples =
        std::min<std::size_t>(kMaxOwdSamples, c.request_count);
    if ((row.traits & ClientTraits::kUnsynchronized) != 0) {
      // The client's clock is off by minutes: no OWD it reports is valid.
      c.owd_samples_ms.assign(samples, -1.0F);
      continue;
    }
    const double shape =
        category_of(row.provider) == logs::ProviderCategory::kMobile
            ? params.pareto_shape_mobile
            : params.pareto_shape_fixed;
    c.owd_samples_ms.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      c.owd_samples_ms.push_back(static_cast<float>(
          std::min(static_cast<double>(row.base_owd_ms) * rng.pareto(1.0, shape),
                   params.owd_cap_ms)));
    }
  }
  return log;
}

}  // namespace mntp::fleet
