#include "fleet/client_fleet.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

namespace mntp::fleet {

namespace {

// Seed namespace: streams 0/1/2/3 of the fleet seed belong to clients,
// servers, the population build and the rendered server logs
// respectively (see simulator.cc and server_fleet.cc for the
// client/server halves, server_log.cc for the logs). Keeping the roots
// disjoint means a client id can never collide with a server index in
// seed space.
constexpr std::uint64_t kBuildStream = 2;

/// Cumulative Table-1 unique-client weights for the home-server pick.
std::array<double, logs::kPaperServers.size()> server_cumulative() {
  std::array<double, logs::kPaperServers.size()> cum{};
  double total = 0.0;
  for (std::size_t i = 0; i < logs::kPaperServers.size(); ++i) {
    total += static_cast<double>(logs::kPaperServers[i].unique_clients);
    cum[i] = total;
  }
  return cum;
}

/// Provider weights for one server class. ISP-internal servers serve
/// mostly infrastructure (routers): non-ISP providers are downweighted
/// x0.05.
std::array<double, logs::kPaperProviders.size()> provider_cumulative(
    bool isp_internal) {
  std::array<double, logs::kPaperProviders.size()> cum{};
  double total = 0.0;
  for (std::size_t i = 0; i < logs::kPaperProviders.size(); ++i) {
    double w = logs::kPaperProviders[i].client_weight;
    if (isp_internal &&
        logs::kPaperProviders[i].category != logs::ProviderCategory::kIsp) {
      w *= 0.05;
    }
    total += w;
    cum[i] = total;
  }
  return cum;
}

std::size_t pick_cumulative(std::span<const double> cum, double u) {
  const double x = u * cum.back();
  const auto it = std::upper_bound(cum.begin(), cum.end(), x);
  return std::min(static_cast<std::size_t>(it - cum.begin()),
                  cum.size() - 1);
}

constexpr std::uint64_t kNsPerSec = 1'000'000'000ULL;

}  // namespace

ClientFleet ClientFleet::build(const FleetParams& params) {
  if (params.clients == 0) {
    throw std::invalid_argument("ClientFleet: clients must be > 0");
  }
  if (params.clients > std::numeric_limits<std::uint32_t>::max()) {
    // The calendar wheel and ArrivalRecord carry 32-bit client ids.
    throw std::invalid_argument("ClientFleet: clients must be <= 2^32 - 1");
  }
  const std::size_t n = static_cast<std::size_t>(params.clients);
  ClientFleet fleet;
  fleet.size_ = params.clients;
  fleet.rows_.resize(n);
  fleet.init_interval_ns_.resize(n);
  fleet.init_next_poll_ns_.resize(n);
  std::vector<ClientRow>& rows = fleet.rows_;

  core::Rng rng(core::derive_stream_seed(params.seed, kBuildStream));

  // Gaussian fields first, one field at a time; the serial pass below
  // overwrites the entries that are not plain Gaussians (unsynchronized
  // clock errors).
  for (std::size_t i = 0; i < n; ++i) {
    rows[i].clock_err_ms =
        static_cast<float>(rng.normal(0.0, params.clock_offset_sigma_ms));
  }
  for (std::size_t i = 0; i < n; ++i) {
    rows[i].skew_ppm =
        static_cast<float>(rng.normal(0.0, params.skew_sigma_ppm));
  }
  for (std::size_t i = 0; i < n; ++i) {
    rows[i].snr_mean_db =
        static_cast<float>(rng.normal(params.snr_mean_db, params.snr_sigma_db));
  }

  const auto server_cum = server_cumulative();
  const auto provider_cum_public = provider_cumulative(false);
  const auto provider_cum_internal = provider_cumulative(true);
  std::array<double, logs::kPaperProviders.size()> log_median_owd{};
  for (std::size_t p = 0; p < log_median_owd.size(); ++p) {
    log_median_owd[p] = std::log(logs::kPaperProviders[p].min_owd_median_ms);
  }

  for (std::size_t i = 0; i < n; ++i) {
    ClientRow& row = rows[i];
    // Home server weighted by Table-1 unique-client counts.
    const std::size_t s = pick_cumulative(server_cum, rng.uniform(0.0, 1.0));
    const logs::ServerSpec& server = logs::kPaperServers[s];
    row.server = static_cast<std::uint16_t>(s);

    // Provider, then the provider-derived traits.
    const std::size_t p = pick_cumulative(
        server.isp_internal ? provider_cum_internal : provider_cum_public,
        rng.uniform(0.0, 1.0));
    const logs::ProviderSpec& provider = logs::kPaperProviders[p];
    row.provider = static_cast<std::uint8_t>(p);

    std::uint8_t traits = 0;
    double sntp_p = provider.sntp_fraction;
    if (server.isp_internal) sntp_p *= 0.25;
    if (rng.bernoulli(sntp_p)) traits |= ClientTraits::kSntp;
    const bool mobile =
        provider.category == logs::ProviderCategory::kMobile;
    if (mobile || rng.bernoulli(params.wireless_fraction)) {
      traits |= ClientTraits::kWireless;
    }

    // Base (minimum) OWD from the provider's min-OWD distribution:
    // lognormal around the median for fixed-line providers, wide uniform
    // for mobile (Figure 1's linear CDF). Clamped to the observed OWD
    // range (§1) so no provider escapes its category band.
    double base_ms;
    if (mobile) {
      base_ms = rng.uniform(0.35 * provider.min_owd_median_ms,
                            1.75 * provider.min_owd_median_ms);
    } else {
      base_ms = rng.lognormal(log_median_owd[p], provider.min_owd_sigma);
    }
    base_ms = std::clamp(base_ms, 1.0, 997.0);
    row.base_owd_ms = static_cast<float>(base_ms);

    if (rng.bernoulli(params.unsynchronized_fraction)) {
      traits |= ClientTraits::kUnsynchronized;
      const double mag_ms = 1'000.0 * rng.uniform(params.unsync_offset_min_s,
                                                  params.unsync_offset_max_s);
      row.clock_err_ms =
          static_cast<float>(rng.bernoulli(0.5) ? mag_ms : -mag_ms);
    }

    // Poll schedule: SNTP on an app-defined timer, NTP on a power-of-two
    // exponent. First poll lands uniformly inside one interval so the
    // fleet is phase-desynchronized from slice 0.
    double interval_s;
    if ((traits & ClientTraits::kSntp) != 0) {
      interval_s = rng.uniform(params.sntp_poll_min_s, params.sntp_poll_max_s);
    } else {
      const auto k = rng.uniform_int(params.ntp_poll_min_log2,
                                     params.ntp_poll_max_log2);
      interval_s = std::ldexp(1.0, static_cast<int>(k));
    }
    const auto interval_ns =
        static_cast<std::uint64_t>(interval_s * static_cast<double>(kNsPerSec));
    fleet.init_interval_ns_[i] = interval_ns;
    fleet.init_next_poll_ns_[i] = static_cast<std::uint64_t>(
        rng.uniform(0.0, 1.0) * static_cast<double>(interval_ns));

    row.traits = traits;
    if ((traits & ClientTraits::kSntp) != 0) ++fleet.sntp_clients_;
    if ((traits & ClientTraits::kWireless) != 0) ++fleet.wireless_clients_;
  }
  return fleet;
}

}  // namespace mntp::fleet
