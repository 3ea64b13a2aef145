#include "net/wired_link.h"

#include <cmath>
#include <stdexcept>

namespace mntp::net {

WiredLinkParams WiredLinkParams::lan() {
  WiredLinkParams p;
  p.base_delay = core::Duration::microseconds(300);
  p.jitter_median = core::Duration::microseconds(100);
  p.jitter_sigma = 0.5;
  p.loss_probability = 1e-5;
  p.bytes_per_second = 125e6;  // 1 Gbit/s
  return p;
}

WiredLinkParams WiredLinkParams::wan(core::Duration base) {
  WiredLinkParams p;
  p.base_delay = base;
  p.jitter_median = core::Duration::milliseconds(2);
  p.jitter_sigma = 1.05;
  p.loss_probability = 0.002;
  p.bytes_per_second = 12.5e6;
  return p;
}

WiredLink::WiredLink(WiredLinkParams params, core::Rng rng)
    : params_(params),
      rng_(std::move(rng)),
      jitter_mu_(params_.jitter_median > core::Duration::zero()
                     ? std::log(params_.jitter_median.to_seconds())
                     : 0.0) {
  if (params_.loss_probability < 0.0 || params_.loss_probability > 1.0) {
    throw std::invalid_argument("WiredLink: loss probability out of range");
  }
}

TransmitResult WiredLink::transmit(core::TimePoint /*now*/, std::size_t bytes) {
  if (rng_.bernoulli(params_.loss_probability)) {
    return {.delivered = false, .delay = core::Duration::zero()};
  }
  // Lognormal with median = jitter_median: mu = ln(median).
  double jitter_s = 0.0;
  if (params_.jitter_median > core::Duration::zero()) {
    jitter_s = rng_.lognormal(jitter_mu_, params_.jitter_sigma);
  }
  double serialization_s = 0.0;
  if (params_.bytes_per_second > 0.0) {
    serialization_s = static_cast<double>(bytes) / params_.bytes_per_second;
  }
  return {.delivered = true,
          .delay = params_.base_delay + core::Duration::from_seconds(jitter_s) +
                   core::Duration::from_seconds(serialization_s)};
}

}  // namespace mntp::net
