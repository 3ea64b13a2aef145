// Wired link model: a LAN segment or a wide-area Internet path.
//
// The paper's wired baseline (MacBook on Ethernet reaching pool servers)
// shows SNTP offsets with mean ~4 ms and sd ~7 ms — i.e. low, weakly
// varying queueing jitter and negligible loss. We model the one-way delay
// as base propagation + lognormal queueing jitter + per-byte serialization,
// with a small independent loss probability.
#pragma once

#include "core/rng.h"
#include "net/link.h"

namespace mntp::net {

struct WiredLinkParams {
  /// Fixed propagation + minimum forwarding delay.
  core::Duration base_delay = core::Duration::milliseconds(20);
  /// Median of the additional queueing jitter.
  core::Duration jitter_median = core::Duration::milliseconds(2);
  /// Shape of the lognormal jitter (sigma of the underlying normal).
  /// Larger values thicken the tail.
  double jitter_sigma = 0.8;
  /// Independent per-packet loss probability.
  double loss_probability = 0.001;
  /// Serialization rate; 0 disables the per-byte term.
  double bytes_per_second = 12.5e6;  // 100 Mbit/s

  /// Convenience presets.
  static WiredLinkParams lan();        ///< sub-millisecond local segment
  static WiredLinkParams wan(core::Duration base);  ///< Internet path
};

class WiredLink final : public Link {
 public:
  WiredLink(WiredLinkParams params, core::Rng rng);

  TransmitResult transmit(core::TimePoint now, std::size_t bytes) override;

  [[nodiscard]] const WiredLinkParams& params() const { return params_; }

 private:
  WiredLinkParams params_;
  core::Rng rng_;
  double jitter_mu_;  // ln(jitter_median in s), the lognormal's mu
};

}  // namespace mntp::net
