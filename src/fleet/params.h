// Fleet-scale client-population simulation: parameters and vocabulary.
//
// The per-client simulators (ntp::SntpClient, protocol::MntpEngine on a
// sim::EventQueue) answer "what does one client experience"; the paper's
// §3.1 measurement study asks the transposed question — "what does a
// *server* see from millions of clients". Replaying one event per query
// through the event kernel would spend the whole budget on queue churn.
// The fleet layer instead keeps the population as one compact row per
// client (src/fleet/client_fleet.h) and advances it in time-sliced
// batches per shard (src/fleet/simulator.h), so the inner loop touches a
// client's row and state with no allocation and no priority queue.
//
// Determinism contract (the same one sim::ReplicationRunner and the
// sharded obs metrics obey): every random decision is a pure function of
// seeds, never of shard partitioning or thread scheduling. Client i's
// per-query stream is core::Rng(derive_stream_seed(client_seed,
// next_poll_ns)) — poll times strictly increase, so each query owns a
// unique stream — and server-side randomness is a pure function of
// (server seed, time bucket). Results are bit-identical for any
// --threads AND any shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mntp::fleet {

/// Protocol the client speaks (the paper's SNTP-vs-full-NTP split of
/// Figure 2: mobile providers are ≥95% SNTP).
enum class Speaker : std::uint8_t { kNtp = 0, kSntp = 1 };

/// Last-hop population tag: wired (fixed-line) or wireless (802.11 /
/// cellular last hop with MAC retries and heavy-tailed stalls).
enum class Population : std::uint8_t { kWired = 0, kWireless = 1 };

[[nodiscard]] constexpr std::string_view speaker_name(Speaker s) {
  return s == Speaker::kNtp ? "ntp" : "sntp";
}
[[nodiscard]] constexpr std::string_view population_name(Population p) {
  return p == Population::kWired ? "wired" : "wireless";
}

struct FleetParams {
  // --- Population ------------------------------------------------------
  std::uint64_t clients = 100'000;
  std::uint64_t seed = 1;
  /// Fraction of clients whose clock is wildly unsynchronized (their
  /// measured OWDs fall outside the validity window and are filtered:
  /// the Durairajan heuristic of §3.1).
  double unsynchronized_fraction = 0.06;
  /// Synchronized clients: clock offset ~ N(0, sigma) ms, skew ~ N(0,
  /// sigma) ppm. Unsynchronized: |offset| uniform in [min,max] seconds.
  double clock_offset_sigma_ms = 20.0;
  double skew_sigma_ppm = 20.0;
  double unsync_offset_min_s = 30.0;
  double unsync_offset_max_s = 300.0;
  /// Non-mobile clients are wireless with this probability (mobile
  /// provider clients are always wireless).
  double wireless_fraction = 0.22;

  // --- Polling ---------------------------------------------------------
  /// SNTP speakers poll at a fixed per-client interval drawn uniformly
  /// from [min,max] s (the paper's SNTP stacks poll on app-defined
  /// timers, not NTP's adaptive schedule).
  double sntp_poll_min_s = 16.0;
  double sntp_poll_max_s = 112.0;
  /// NTP speakers poll at 2^k s, k uniform in [min,max] (RFC 5905 poll
  /// exponent range 6..10).
  int ntp_poll_min_log2 = 6;
  int ntp_poll_max_log2 = 10;

  // --- Time slicing ----------------------------------------------------
  double duration_s = 60.0;
  /// Batch granularity. Must stay below the minimum poll interval so a
  /// client fires at most once per slice (asserted at run()).
  double slice_s = 1.0;
  std::size_t shards = 64;

  // --- Server side -----------------------------------------------------
  /// Kiss-of-death rate limit: per server, requests beyond this count in
  /// one slice get a KoD instead of time; the client backs its poll
  /// interval off by `kod_backoff_factor`, capped at `kod_backoff_cap_s`.
  std::uint64_t kod_limit_per_slice = 1'500;
  double kod_backoff_factor = 4.0;
  double kod_backoff_cap_s = 2'048.0;
  /// Response cache: a server computes its transmit-timestamp error once
  /// per time bucket and serves every request in the bucket from cache.
  double cache_bucket_ms = 250.0;
  /// Server clock error stddev (the per-bucket cached value), ms.
  double server_err_sigma_ms = 2.0;

  // --- Channel ---------------------------------------------------------
  // Wireless clients run the testbed channel's kernel with the testbed
  // channel's constants (net::WirelessChannelParams' shadowing, failure
  // curve and MAC retries): exact shadowing OU (sim/ou.h), logistic
  // attempt failure and MAC retry loop (net/wireless_kernel.h). No
  // collision term: cross-traffic is a testbed-only process.
  /// Mean SNR margin and its per-client spread (dB); per-query SNR adds
  /// the OU shadowing state.
  double snr_mean_db = 12.0;
  double snr_sigma_db = 3.0;
  /// Fixed-line last hop: plain Bernoulli loss, no retry delay.
  double wired_loss = 0.002;
  /// Per-sample OWD jitter: base * Pareto(1, shape); heavier tail for
  /// mobile-provider clients. Both the simulated queries and the
  /// rendered server logs (fleet/server_log.h) draw it.
  double pareto_shape_mobile = 2.2;
  double pareto_shape_fixed = 4.0;
  double owd_cap_ms = 3'000.0;

  // --- Measured-OWD validity window (§3.1 filter) ----------------------
  double owd_valid_min_ms = 0.0;
  double owd_valid_max_ms = 3'000.0;
};

}  // namespace mntp::fleet
