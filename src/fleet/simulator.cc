#include "fleet/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "net/wireless_kernel.h"
#include "obs/metric_names.h"
#include "obs/telemetry.h"

namespace mntp::fleet {

namespace {

constexpr std::uint64_t kClientStream = 0;  // see client_fleet.cc seed map
constexpr double kNsPerSec = 1e9;
constexpr double kNsPerMs = 1e6;

// Phase A look-ahead, in drained ids. At fleet sizes the client arrays
// are DRAM-resident and every query's first touch of its row and state
// is a miss; the drained slot already names the ids to come, so the
// loop asks for the lines this many queries ahead. Measured on
// fleet_e2e (2M clients, 4 threads): 8 to 24 read the same, within
// noise, and 1.4x the throughput of no look-ahead.
constexpr std::size_t kPrefetchDistance = 12;

/// Starts the loads of client `id`'s state (about to be written) and
/// row. A 20-byte row can straddle two cache lines: prefetching its
/// first and its last byte covers both.
inline void prefetch_client(const ClientState* state, const ClientRow* rows,
                            std::uint32_t id) {
  __builtin_prefetch(state + id, /*rw=*/1);
  const char* row = reinterpret_cast<const char*>(rows + id);
  __builtin_prefetch(row);
  __builtin_prefetch(row + sizeof(ClientRow) - 1);
}

}  // namespace

bool FleetResult::deterministic_equal(const FleetResult& other) const {
  return clients == other.clients && sntp_clients == other.sntp_clients &&
         ntp_clients == other.ntp_clients &&
         wireless_clients == other.wireless_clients &&
         wired_clients == other.wired_clients && queries == other.queries &&
         arrived == other.arrived && dropped == other.dropped &&
         kod == other.kod && batches == other.batches &&
         cache_hits == other.cache_hits &&
         cache_misses == other.cache_misses &&
         server_requests == other.server_requests && owd == other.owd;
}

Simulator::Simulator(std::shared_ptr<const ClientFleet> fleet,
                     FleetParams params)
    : fleet_(std::move(fleet)), params_(params) {
  if (!fleet_) throw std::invalid_argument("Simulator: null fleet");
  if (params_.shards == 0) {
    throw std::invalid_argument("Simulator: shards must be > 0");
  }
  // Rejects NaN and infinity too: run() casts the duration to uint64 ns.
  if (!(params_.duration_s > 0.0 && params_.duration_s * kNsPerSec < 0x1p64)) {
    throw std::invalid_argument(
        "Simulator: duration_s must be finite, > 0 and under 2^64 ns");
  }
  const double min_poll_s =
      std::min(params_.sntp_poll_min_s,
               std::ldexp(1.0, params_.ntp_poll_min_log2));
  if (params_.slice_s <= 0.0 || params_.slice_s >= min_poll_s) {
    // The at-most-one-query-per-client-per-slice invariant (and with it
    // the collision-free calendar wheel) needs slice < min poll.
    throw std::invalid_argument(
        "Simulator: slice_s must be in (0, min poll interval)");
  }
  obs::MetricsRegistry& m = obs::Telemetry::global().metrics();
  queries_counter_ = m.counter(obs::metric_names::kFleetClientQueries);
  dropped_counter_ = m.counter(obs::metric_names::kFleetClientDropped);
}

FleetResult Simulator::run(std::size_t threads) {
  const auto wall_start = std::chrono::steady_clock::now();
  const ClientFleet& fleet = *fleet_;
  const std::size_t n = static_cast<std::size_t>(fleet.size());
  const auto slice_ns =
      static_cast<std::uint64_t>(params_.slice_s * kNsPerSec);
  const auto duration_ns =
      static_cast<std::uint64_t>(params_.duration_s * kNsPerSec);
  const std::uint64_t n_slices = (duration_ns + slice_ns - 1) / slice_ns;
  const std::size_t shards = std::min(params_.shards, n);
  const std::size_t per_shard = (n + shards - 1) / shards;
  const std::size_t servers = logs::kPaperServers.size();

  // Wheel horizon: one slot per slice of the maximum possible poll
  // interval (the KoD backoff cap) plus slack, so slot index (poll /
  // slice) mod H is collision-free — every id drained at slice t polls
  // exactly in slice t.
  const std::uint64_t wheel_h =
      static_cast<std::uint64_t>(params_.kod_backoff_cap_s / params_.slice_s) +
      2;

  // Per-run mutable client state, fresh per run so runs are independent.
  const std::vector<ClientRow>& rows = fleet.rows();
  std::vector<ClientState> state;
  state.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    state.push_back(ClientState{.next_poll_ns = fleet.init_next_poll_ns()[i],
                                .interval_ns = fleet.init_interval_ns()[i],
                                .last_adv_ns = 0,
                                .shadow_db = 0.0});
  }

  // Calendar wheels and arrival buffers, per shard.
  std::vector<std::vector<std::vector<std::uint32_t>>> wheel(shards);
  std::vector<std::vector<std::uint32_t>> drain_scratch(shards);
  std::vector<std::vector<std::vector<ArrivalRecord>>> arrivals(shards);
  for (std::size_t sh = 0; sh < shards; ++sh) {
    wheel[sh].resize(wheel_h);
    arrivals[sh].resize(servers);
    const std::size_t lo = sh * per_shard;
    const std::size_t hi = std::min(lo + per_shard, n);
    for (std::size_t i = lo; i < hi; ++i) {
      if (state[i].next_poll_ns < duration_ns) {
        wheel[sh][(state[i].next_poll_ns / slice_ns) % wheel_h].push_back(
            static_cast<std::uint32_t>(i));
      }
    }
  }

  // Per-shard tallies (disjoint writes; summed serially after the loop).
  std::vector<std::uint64_t> shard_queries(shards, 0);
  std::vector<std::uint64_t> shard_dropped(shards, 0);

  OwdCollector owd(servers, params_.owd_valid_min_ms,
                   params_.owd_valid_max_ms);
  ServerFleet server_fleet(params_, servers);
  std::vector<std::vector<ArrivalRecord>> gather(servers);

  const std::uint64_t client_root =
      core::derive_stream_seed(params_.seed, kClientStream);
  const double mobile_shape = params_.pareto_shape_mobile;
  const double fixed_shape = params_.pareto_shape_fixed;

  core::ThreadPool pool(threads <= 1 ? 0 : threads);

  for (std::uint64_t slice = 0; slice < n_slices; ++slice) {
    const std::uint64_t slot_index = slice % wheel_h;
    // Phase A: clients. Each shard owns its wheel, its arrival buffers,
    // its clients' states and its slice tallies; the only shared reads
    // are the immutable fleet rows.
    pool.parallel_for(0, shards, [&](std::size_t sh) {
      std::vector<std::uint32_t>& scratch = drain_scratch[sh];
      scratch.swap(wheel[sh][slot_index]);
      std::uint64_t q_count = 0;
      std::uint64_t d_count = 0;
      const std::size_t drained = scratch.size();
      for (std::size_t k = 0; k < std::min(drained, kPrefetchDistance); ++k) {
        prefetch_client(state.data(), rows.data(), scratch[k]);
      }
      for (std::size_t i = 0; i < drained; ++i) {
        if (i + kPrefetchDistance < drained) {
          prefetch_client(state.data(), rows.data(),
                          scratch[i + kPrefetchDistance]);
        }
        const std::uint32_t id = scratch[i];
        ClientState& cs = state[id];
        const ClientRow& row = rows[id];
        const std::uint64_t poll_ns = cs.next_poll_ns;
        core::Rng q(core::derive_stream_seed(
            core::derive_stream_seed(client_root, id), poll_ns));
        ++q_count;

        const bool wireless = (row.traits & ClientTraits::kWireless) != 0;
        bool delivered;
        double backoff_ms = 0.0;
        if (wireless) {
          // The testbed channel's per-link kernel, keyed per client:
          // exact shadowing OU advance across the idle gap, then the
          // SNR failure curve and the MAC retry loop.
          namespace kernel = net::wireless_kernel;
          const double gap_s =
              static_cast<double>(poll_ns - cs.last_adv_ns) / kNsPerSec;
          const double sh_db = kernel::ou_advance(
              cs.shadow_db, gap_s, params_.shadowing_sigma_db,
              params_.shadowing_tau_s, q);
          cs.shadow_db = sh_db;
          cs.last_adv_ns = poll_ns;
          const double p_fail = kernel::snr_failure_probability(
              row.snr_mean_db + sh_db, params_.snr50_db,
              params_.snr_slope_db);
          const kernel::MacResult mac = kernel::mac_transmit(
              p_fail, params_.max_retries, params_.retry_backoff_ms, q);
          delivered = mac.delivered;
          backoff_ms = mac.backoff;
        } else {
          delivered = !q.bernoulli(params_.wired_loss);
        }

        if (delivered) {
          const bool mobile =
              category_of(row.provider) == logs::ProviderCategory::kMobile;
          double owd_ms =
              static_cast<double>(row.base_owd_ms) *
                  q.pareto(1.0, mobile ? mobile_shape : fixed_shape) +
              backoff_ms;
          owd_ms = std::min(owd_ms, params_.owd_cap_ms);
          const double poll_s = static_cast<double>(poll_ns) / kNsPerSec;
          const double client_err_ms =
              static_cast<double>(row.clock_err_ms) +
              static_cast<double>(row.skew_ppm) * poll_s * 1e-3;
          arrivals[sh][row.server].push_back(ArrivalRecord{
              .arrive_ns =
                  poll_ns + static_cast<std::uint64_t>(owd_ms * kNsPerMs),
              .client = id,
              .traits = row.traits,
              .provider = row.provider,
              .partial_ms = owd_ms - client_err_ms,
          });
        } else {
          ++d_count;
        }

        const std::uint64_t np = poll_ns + cs.interval_ns;
        cs.next_poll_ns = np;
        if (np < duration_ns) {
          wheel[sh][(np / slice_ns) % wheel_h].push_back(id);
        }
      }
      scratch.clear();
      shard_queries[sh] += q_count;
      shard_dropped[sh] += d_count;
      queries_counter_->inc(q_count);
      dropped_counter_->inc(d_count);
    });

    // Phase B: servers. Gather each server's arrivals from every shard,
    // sort into the canonical (arrival, client) order, run the
    // batching / cache / KoD pipeline. KoD interval writes are disjoint
    // by home server.
    pool.parallel_for(0, servers, [&](std::size_t s) {
      std::vector<ArrivalRecord>& batch = gather[s];
      batch.clear();
      for (std::size_t sh = 0; sh < shards; ++sh) {
        batch.insert(batch.end(), arrivals[sh][s].begin(),
                     arrivals[sh][s].end());
        arrivals[sh][s].clear();
      }
      std::sort(batch.begin(), batch.end(),
                [](const ArrivalRecord& a, const ArrivalRecord& b) {
                  return a.arrive_ns != b.arrive_ns
                             ? a.arrive_ns < b.arrive_ns
                             : a.client < b.client;
                });
      server_fleet.process_slice(s, batch, state, owd);
    });
  }

  FleetResult result;
  result.clients = fleet.size();
  result.sntp_clients = fleet.sntp_clients();
  result.ntp_clients = fleet.ntp_clients();
  result.wireless_clients = fleet.wireless_clients();
  result.wired_clients = fleet.wired_clients();
  for (std::size_t sh = 0; sh < shards; ++sh) {
    result.queries += shard_queries[sh];
    result.dropped += shard_dropped[sh];
  }
  result.server_requests.resize(servers);
  for (std::size_t s = 0; s < servers; ++s) {
    const ServerTotals& t = server_fleet.totals(s);
    result.server_requests[s] = t.requests;
    result.arrived += t.requests;
    result.kod += t.kod;
    result.batches += t.batches;
    result.cache_hits += t.cache_hits;
    result.cache_misses += t.cache_misses;
  }
  result.owd = owd.merged();

  result.threads = threads == 0 ? 1 : threads;
  const auto wall_end = std::chrono::steady_clock::now();
  result.wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (result.wall_s > 0.0) {
    result.qps = static_cast<double>(result.queries) / result.wall_s;
    result.qps_per_core = result.qps / static_cast<double>(result.threads);
  }
  return result;
}

}  // namespace mntp::fleet
