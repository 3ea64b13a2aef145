// Server-side request pipeline: response caching, KoD.
//
// Phase B of the fleet simulator (see simulator.h) hands each server the
// slice's arrivals in canonical order — sorted by (arrival time, client
// id), which is invariant under shard partitioning and thread count —
// and this pipeline applies the two server-side mechanisms:
//
//   * response caching: the server's transmit-timestamp error is
//     computed once per cache bucket and served from cache within it.
//     The cached value is a pure function of (server seed, bucket
//     index) — NOT of which request missed first — so cache behaviour
//     can never leak scheduling into results;
//   * kiss-of-death rate limiting: requests beyond the per-slice limit
//     get a KoD instead of time, and the offending client's poll
//     interval backs off multiplicatively (capped). A client has exactly
//     one home server, so the interval write is disjoint across the
//     concurrently-processed servers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fleet/client_fleet.h"
#include "fleet/owd_collector.h"
#include "fleet/params.h"
#include "obs/metrics.h"

namespace mntp::fleet {

/// One delivered query as Phase A emits it. `partial_ms` is the
/// client-side half of the measured OWD (true delay minus client clock
/// error); Phase B adds the server's cached clock error. The client's
/// traits and provider ride in what would be padding, so Phase B's OWD
/// record reads no fleet memory.
struct ArrivalRecord {
  std::uint64_t arrive_ns;
  std::uint32_t client;
  std::uint8_t traits;    // ClientRow::traits
  std::uint8_t provider;  // ClientRow::provider
  double partial_ms;
};
static_assert(sizeof(ArrivalRecord) == 24);

struct ServerTotals {
  std::uint64_t requests = 0;
  std::uint64_t kod = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

class ServerFleet {
 public:
  /// `servers` = number of server slots (indices into logs::kPaperServers
  /// when the fleet uses the paper population). Binds registry handles
  /// from the current global obs context: per-server
  /// fleet.server.requests{server=...} plus fleet-wide kod / cache
  /// counters, each added once per processed slice.
  ServerFleet(const FleetParams& params, std::size_t servers);

  /// Process one server's canonically-sorted slice batch. Safe to call
  /// concurrently for DISTINCT servers: per-server state is indexed,
  /// client interval writes are disjoint by home server, and the
  /// collector slot is the server index.
  void process_slice(std::size_t server,
                     std::span<const ArrivalRecord> arrivals,
                     std::span<ClientState> clients, OwdCollector& owd);

  [[nodiscard]] const ServerTotals& totals(std::size_t server) const {
    return state_[server].totals;
  }
  [[nodiscard]] std::size_t servers() const { return state_.size(); }

 private:
  static constexpr std::uint64_t kNoBucket = ~0ULL;

  struct State {
    std::uint64_t cached_bucket = kNoBucket;
    double cached_err_ms = 0.0;
    ServerTotals totals;
  };

  std::uint64_t seed_root_;  // server stream root of the fleet seed
  std::uint64_t kod_limit_;
  double kod_backoff_factor_;
  std::uint64_t kod_cap_ns_;
  std::uint64_t cache_bucket_ns_;
  double server_err_sigma_ms_;
  std::vector<State> state_;
  std::vector<obs::ShardedCounter*> requests_counter_;  // per server
  obs::ShardedCounter* kod_counter_;
  obs::ShardedCounter* cache_hit_counter_;
  obs::ShardedCounter* cache_miss_counter_;
};

}  // namespace mntp::fleet
