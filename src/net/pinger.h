// Active ping probing.
//
// The paper's target node "sends statistics collected through active
// measurement to the MN using tools like ping" (§3.2); the monitor node's
// control loop keys off ping loss and latency. This component issues
// periodic echo probes across a round-trip path and retains a sliding
// window of results for the controller to read.
#pragma once

#include <optional>

#include "core/ring_buffer.h"
#include "core/time.h"
#include "net/link.h"
#include "sim/simulation.h"

namespace mntp::net {

struct ProbeResult {
  core::TimePoint sent_at;
  bool lost = true;
  core::Duration rtt = core::Duration::zero();
};

/// Aggregate view over the most recent probes.
struct ProbeStats {
  std::size_t probes = 0;
  std::size_t losses = 0;
  core::Duration mean_rtt = core::Duration::zero();  // over delivered probes
  core::Duration max_rtt = core::Duration::zero();

  [[nodiscard]] double loss_fraction() const {
    return probes ? static_cast<double>(losses) / static_cast<double>(probes) : 0.0;
  }
};

struct PingerParams {
  core::Duration interval = core::Duration::seconds(1);
  std::size_t window = 20;   ///< probes retained for stats
  std::size_t probe_bytes = 64;
};

class Pinger {
 public:
  /// `forward` carries the echo request, `reverse` the reply.
  Pinger(sim::Simulation& sim, LinkPath forward, LinkPath reverse,
         PingerParams params);

  void start();

  /// Stats over the retained window (most recent `params.window` probes).
  [[nodiscard]] ProbeStats stats() const;

  [[nodiscard]] std::size_t total_sent() const { return sent_; }

 private:
  void probe();

  sim::Simulation& sim_;
  LinkPath forward_;
  LinkPath reverse_;
  PingerParams params_;
  core::RingBuffer<ProbeResult> window_;
  sim::PeriodicProcess process_;
  std::size_t sent_ = 0;
};

}  // namespace mntp::net
