#include "fleet/server_fleet.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/rng.h"
#include "ntp/server.h"
#include "obs/metric_names.h"
#include "obs/telemetry.h"

namespace mntp::fleet {

namespace {
constexpr std::uint64_t kServerStream = 1;  // see client_fleet.cc seed map
constexpr double kNsPerMs = 1e6;
// KoD look-ahead, in arrivals: past the limit every arrival rewrites its
// client's DRAM-resident interval, so the loop asks for the state this
// many arrivals ahead. Measured on fleet_e2e (2M clients): 8 to 32
// read the same, within noise.
constexpr std::size_t kKodPrefetchDistance = 16;
}  // namespace

ServerFleet::ServerFleet(const FleetParams& params, std::size_t servers)
    : seed_root_(core::derive_stream_seed(params.seed, kServerStream)),
      kod_limit_(params.kod_limit_per_slice),
      kod_backoff_factor_(params.kod_backoff_factor),
      kod_cap_ns_(static_cast<std::uint64_t>(params.kod_backoff_cap_s * 1e9)),
      cache_bucket_ns_(
          static_cast<std::uint64_t>(params.cache_bucket_ms * kNsPerMs)),
      server_err_sigma_ms_(params.server_err_sigma_ms),
      state_(servers) {
  obs::MetricsRegistry& m = obs::Telemetry::global().metrics();
  requests_counter_.reserve(servers);
  for (std::size_t s = 0; s < servers; ++s) {
    const std::string_view id = s < logs::kPaperServers.size()
                                    ? logs::kPaperServers[s].id
                                    : std::string_view("?");
    requests_counter_.push_back(
        m.counter(obs::metric_names::kFleetServerRequests,
                  obs::Labels{{"server", std::string(id)}}));
  }
  kod_counter_ = m.counter(obs::metric_names::kFleetServerKod);
  cache_hit_counter_ = m.counter(obs::metric_names::kFleetServerCacheHits);
  cache_miss_counter_ = m.counter(obs::metric_names::kFleetServerCacheMisses);
}

void ServerFleet::process_slice(std::size_t server,
                                std::span<const ArrivalRecord> arrivals,
                                std::span<ClientState> clients,
                                OwdCollector& owd) {
  State& st = state_[server];
  const ServerTotals before = st.totals;
  const std::uint64_t server_seed =
      core::derive_stream_seed(seed_root_, server);
  std::uint64_t slice_requests = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const ArrivalRecord& a = arrivals[i];
    const std::size_t ahead = i + kKodPrefetchDistance;
    if (ahead >= kod_limit_ && ahead < arrivals.size()) {
      __builtin_prefetch(&clients[arrivals[ahead].client], /*rw=*/1);
    }
    ++st.totals.requests;
    // KoD rate limit: over-limit requests get no time response; the
    // client backs off its poll interval (capped).
    if (++slice_requests > kod_limit_) {
      ++st.totals.kod;
      std::uint64_t& interval = clients[a.client].interval_ns;
      interval = ntp::kod_backoff_interval_ns(interval, kod_backoff_factor_,
                                              kod_cap_ns_);
      continue;
    }
    // Response cache: the server's clock error is a pure function of
    // (server seed, cache bucket) — recomputed on a bucket change,
    // served from cache inside it.
    const std::uint64_t bucket = a.arrive_ns / cache_bucket_ns_;
    if (bucket != st.cached_bucket) {
      st.cached_bucket = bucket;
      core::Rng rng(core::derive_stream_seed(server_seed, bucket));
      st.cached_err_ms = rng.normal(0.0, server_err_sigma_ms_);
      ++st.totals.cache_misses;
    } else {
      ++st.totals.cache_hits;
    }
    const double owd_ms = a.partial_ms + st.cached_err_ms;
    owd.record(server, speaker_of(a.traits), population_of(a.traits),
               category_of(a.provider), owd_ms);
  }
  // The registry counters take this slice's increments in one add each.
  requests_counter_[server]->inc(st.totals.requests - before.requests);
  kod_counter_->inc(st.totals.kod - before.kod);
  cache_hit_counter_->inc(st.totals.cache_hits - before.cache_hits);
  cache_miss_counter_->inc(st.totals.cache_misses - before.cache_misses);
}

}  // namespace mntp::fleet
