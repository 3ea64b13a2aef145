// Time-sliced, sharded fleet simulator.
//
// Advancing 10^6 clients through sim::EventQueue would cost a
// priority-queue op plus an allocated closure per query; the fleet
// instead runs a two-phase loop over fixed time slices:
//
//   Phase A (parallel over client shards): each shard drains this
//     slice's slot of its calendar wheel, samples every due client's
//     channel + OWD, appends delivered queries to its per-(shard,
//     server) arrival buffer, and reschedules the client. The slice is
//     shorter than the minimum poll interval, so a client fires at most
//     once per slice.
//   Phase B (parallel over servers): each server gathers its arrivals
//     from every shard, sorts them by (arrival time, client id) — a
//     canonical order independent of sharding — and runs the
//     batching / response-cache / KoD pipeline (fleet/server_fleet.h).
//
// Determinism: every random draw is a pure function of seeds (per-query
// core::Rng streams keyed by (client seed, poll time); per-bucket
// server streams), aggregation is order-insensitive (integer counters,
// HdrHistogram merges), and cross-phase writes are disjoint (a client
// belongs to one shard and one home server). Results are bit-identical
// for any --threads and any shard count; fleet_determinism_test pins
// both axes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/client_fleet.h"
#include "fleet/owd_collector.h"
#include "fleet/params.h"
#include "fleet/server_fleet.h"
#include "obs/metrics.h"

namespace mntp::fleet {

struct FleetResult {
  // Population (copied from the fleet for the report writer).
  std::uint64_t clients = 0;
  std::uint64_t sntp_clients = 0;
  std::uint64_t ntp_clients = 0;
  std::uint64_t wireless_clients = 0;
  std::uint64_t wired_clients = 0;

  // Conservation: queries == arrived + dropped;
  // arrived == sum(server_requests);
  // cache_hits + cache_misses == arrived - kod;
  // owd.valid + owd.invalid == arrived - kod.
  std::uint64_t queries = 0;
  std::uint64_t arrived = 0;
  std::uint64_t dropped = 0;
  std::uint64_t kod = 0;
  std::uint64_t batches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::vector<std::uint64_t> server_requests;
  OwdCollector::Summary owd;

  // Throughput (excluded from deterministic_equal: wall time is the one
  // quantity that legitimately varies across runs).
  std::size_t threads = 1;
  double wall_s = 0.0;
  double qps = 0.0;
  double qps_per_core = 0.0;

  /// Exact equality of everything except the throughput block — the
  /// contract fleet_determinism_test asserts across thread and shard
  /// counts.
  [[nodiscard]] bool deterministic_equal(const FleetResult& other) const;
};

class Simulator {
 public:
  /// Binds fleet.client.* registry handles from the current global obs
  /// context. The fleet is taken by shared_ptr so bench reps can reuse
  /// one immutable population across many run() calls.
  Simulator(std::shared_ptr<const ClientFleet> fleet, FleetParams params);

  /// One full run over `params.duration_s`, fanned out over
  /// `threads` workers (0/1 = exact serial path, per core::ThreadPool).
  /// Mutable client state (one ClientState per client) is built fresh
  /// per call, so repeated runs are independent and identical.
  [[nodiscard]] FleetResult run(std::size_t threads);

  [[nodiscard]] const FleetParams& params() const { return params_; }
  [[nodiscard]] const ClientFleet& fleet() const { return *fleet_; }

 private:
  std::shared_ptr<const ClientFleet> fleet_;
  FleetParams params_;
  obs::ShardedCounter* queries_counter_;
  obs::ShardedCounter* dropped_counter_;
};

}  // namespace mntp::fleet
