// Stateless per-link wireless kernel: the physics one 802.11 last hop
// applies to one frame, shared by the testbed channel
// (net::WirelessChannel, one core::Rng per channel) and the fleet
// simulator (fleet::Simulator, one core::Rng per query). There is one
// copy of it, so the two cannot drift apart. The slow processes
// (shadowing, noise-floor wander) advance across idle gaps through the
// one OU integrator, sim::ou_advance (sim/ou.h).
//
//   * snr_failure_probability / attempt_failure_probability — the
//     logistic per-attempt failure curve in the SNR margin, plus an
//     independent collision term from cross-traffic.
//   * mac_transmit — the MAC retry loop: each attempt fails
//     independently with p_fail; a failed attempt that will be retried
//     costs an exponential backoff scaled by the attempt number.
//
// The templates take any generator G with `bernoulli(p)` and
// `exponential(mean)`: core::Rng, or a counting stub in tests. Draw
// discipline, pinned by net_wireless_kernel_test: mac_transmit takes one
// bernoulli per attempt and one exponential per failed attempt that is
// retried — none for the final attempt, so a drop never shifts the stream
// of later draws.
#pragma once

#include <algorithm>
#include <cmath>

namespace mntp::net::wireless_kernel {

/// Probability that one attempt fails from SNR alone: ~0 above snr50 +
/// a few slopes, 1/2 at snr50, ~1 well below.
[[nodiscard]] inline double snr_failure_probability(double snr_db,
                                                    double snr50_db,
                                                    double slope_db) {
  return 1.0 / (1.0 + std::exp((snr_db - snr50_db) / slope_db));
}

/// Attempt failure from SNR or, independently, from a collision.
[[nodiscard]] inline double attempt_failure_probability(double p_snr,
                                                        double p_collision) {
  return std::clamp(p_snr + (1.0 - p_snr) * p_collision, 0.0, 1.0);
}

struct MacResult {
  bool delivered = false;
  /// Failed attempts before the delivering one (max_retries on a drop).
  int retries = 0;
  /// Summed backoff, in the unit of `backoff_mean`.
  double backoff = 0.0;
};

/// Up to `max_retries + 1` attempts, each failing with `p_fail`.
template <class G>
[[nodiscard]] MacResult mac_transmit(double p_fail, int max_retries,
                                     double backoff_mean, G& gen) {
  MacResult r;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    if (!gen.bernoulli(p_fail)) {
      r.delivered = true;
      r.retries = attempt;
      return r;
    }
    if (attempt == max_retries) break;
    r.backoff += gen.exponential(backoff_mean) * static_cast<double>(attempt + 1);
  }
  r.retries = max_retries;
  return r;
}

}  // namespace mntp::net::wireless_kernel
