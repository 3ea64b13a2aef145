// Client population: one 20-byte row per client.
//
// Everything a query reads about its client (SNR margin, base OWD, clock
// error and skew, home server, trait bits, provider) sits in one
// ClientRow, so the simulator's Phase A touches the row and the client's
// ClientState and nothing else: two cache lines per query (three when
// the row straddles a line boundary) instead of one line per column. At
// 10^6 clients those lines live in DRAM, so Phase A prefetches them a
// fixed number of drained ids ahead and the misses overlap instead of
// stalling one query at a time. The rows are IMMUTABLE after
// build() — per-run mutable state (next poll, backed-off interval,
// shadowing) lives in the Simulator's ClientState array, so one fleet
// can be shared read-only across runs, threads and bench reps.
//
// The population is calibrated against the paper's Table 1 / Figures
// 1-2 (src/logs/spec.h): clients pick a home server weighted by Table-1
// unique-client counts, a provider weighted by the Figure-1 structure
// (ISP-internal servers biased toward infrastructure NTP speakers), an
// SNTP/NTP speaker per the provider's SNTP share, and a base OWD from
// the provider's min-OWD distribution. It is the one §3.1 population:
// fleet/server_log.h renders each server's log of it for the Table 1
// and Figure 1-2 analysis.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "fleet/params.h"
#include "logs/spec.h"

namespace mntp::fleet {

/// Bit flags packed into ClientRow::traits.
struct ClientTraits {
  static constexpr std::uint8_t kSntp = 1U << 0;
  static constexpr std::uint8_t kWireless = 1U << 1;
  static constexpr std::uint8_t kUnsynchronized = 1U << 2;
};

// Decoders for ClientRow's packed traits and provider index.
[[nodiscard]] constexpr Speaker speaker_of(std::uint8_t traits) {
  return (traits & ClientTraits::kSntp) != 0 ? Speaker::kSntp : Speaker::kNtp;
}
[[nodiscard]] constexpr Population population_of(std::uint8_t traits) {
  return (traits & ClientTraits::kWireless) != 0 ? Population::kWireless
                                                 : Population::kWired;
}
[[nodiscard]] constexpr logs::ProviderCategory category_of(
    std::uint8_t provider) {
  return logs::kPaperProviders[provider].category;
}

/// One client's immutable attributes.
struct ClientRow {
  float snr_mean_db;   // meaningful for wireless clients
  float base_owd_ms;
  float clock_err_ms;  // error at t=0 (huge when unsync)
  float skew_ppm;
  std::uint16_t server;
  std::uint8_t traits;    // ClientTraits bits
  std::uint8_t provider;  // index into logs::kPaperProviders

  [[nodiscard]] bool operator==(const ClientRow&) const = default;
};
static_assert(sizeof(ClientRow) == 20);

/// One client's mutable state for one Simulator::run. Aligned so a state
/// never straddles two cache lines.
struct alignas(32) ClientState {
  std::uint64_t next_poll_ns;
  std::uint64_t interval_ns;  // KoD backoff rewrites it in Phase B
  std::uint64_t last_adv_ns;  // time the shadowing state was advanced to
  double shadow_db;
};
static_assert(sizeof(ClientState) == 32);

class ClientFleet {
 public:
  /// Deterministic build from `params.seed`, written straight into the
  /// rows. The Gaussian fields (clock error, skew, SNR margin) are drawn
  /// one field at a time over all clients; the categorical picks run in
  /// one serial loop. Client ids are 32-bit, so more than UINT32_MAX
  /// clients throws std::invalid_argument before anything is allocated.
  [[nodiscard]] static ClientFleet build(const FleetParams& params);

  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// Immutable rows (index = client id).
  [[nodiscard]] const std::vector<ClientRow>& rows() const { return rows_; }
  [[nodiscard]] const std::vector<std::uint64_t>& init_interval_ns() const {
    return init_interval_ns_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& init_next_poll_ns() const {
    return init_next_poll_ns_;
  }

  /// Population tallies (computed once at build).
  [[nodiscard]] std::uint64_t sntp_clients() const { return sntp_clients_; }
  [[nodiscard]] std::uint64_t ntp_clients() const {
    return size_ - sntp_clients_;
  }
  [[nodiscard]] std::uint64_t wireless_clients() const {
    return wireless_clients_;
  }
  [[nodiscard]] std::uint64_t wired_clients() const {
    return size_ - wireless_clients_;
  }

 private:
  std::uint64_t size_ = 0;
  std::uint64_t sntp_clients_ = 0;
  std::uint64_t wireless_clients_ = 0;
  std::vector<ClientRow> rows_;
  std::vector<std::uint64_t> init_interval_ns_;
  std::vector<std::uint64_t> init_next_poll_ns_;  // first poll, in [0, interval)
};

}  // namespace mntp::fleet
