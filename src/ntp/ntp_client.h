// Reference full-NTP client.
//
// The paper's experiments use ntpd as the "NTP clock correction" baseline
// and name a reference NTP implementation as future work; this class is
// that implementation, assembled from the standalone pieces: stable peer
// associations, per-peer clock filters (RFC 5905 §10), intersection
// selection + clustering + combining (§11.2), and a step/slew clock
// discipline (§11.3, simplified PLL). Unlike the SNTP client it never
// trusts a single sample.
#pragma once

#include <cstddef>
#include <vector>

#include "core/time.h"
#include "ntp/clock_filter.h"
#include "ntp/pool.h"
#include "ntp/selection.h"
#include "ntp/transport.h"
#include "sim/clock_model.h"
#include "sim/simulation.h"

namespace mntp::ntp {

struct NtpClientParams {
  /// Indices of the pool members to peer with (stable associations).
  std::vector<std::size_t> peer_indices{0, 1, 2, 3};
  core::Duration poll_interval = core::Duration::seconds(16);
  /// Offsets above this magnitude step the clock; below it, slew.
  core::Duration step_threshold = core::Duration::milliseconds(128);
  /// Consecutive above-threshold rounds (same sign) required before a
  /// step is taken — ntpd's stepout guard. A lone wireless delay spike
  /// that slips past the clock filter must not step the clock; a genuine
  /// large phase error persists and does.
  std::size_t stepout_rounds = 3;
  /// Fraction of the combined offset applied as an immediate phase nudge
  /// per update when slewing.
  double phase_gain = 0.5;
  /// Integral gain feeding the frequency compensation (per update). Kept
  /// well below the phase gain so the integrator cannot outrun the phase
  /// loop (classic PI stability margin).
  double frequency_gain = 0.0008;
  /// Frequency compensation clamp, ppm.
  double max_frequency_ppm = 100.0;
  ClockFilterParams filter;
  ClusterParams cluster;
  QueryOptions query_options{.timeout = core::Duration::seconds(2),
                             .sntp_style = false,
                             .wire_bytes = 76};
};

class NtpClient {
 public:
  NtpClient(sim::Simulation& sim, sim::DisciplinedClock& clock,
            ServerPool& pool, net::Link* last_hop_up, net::Link* last_hop_down,
            NtpClientParams params);

  void start();

  /// Number of discipline updates applied (steps + slews).
  [[nodiscard]] std::size_t updates() const { return updates_; }
  [[nodiscard]] std::size_t steps() const { return steps_; }
  /// Most recent combined offset estimate.
  [[nodiscard]] core::Duration last_combined_offset() const { return last_offset_; }
  /// Peers surviving selection in the last round.
  [[nodiscard]] std::size_t last_survivor_count() const { return last_survivors_; }

 private:
  void poll_round();
  void discipline(core::Duration offset);

  sim::Simulation& sim_;
  sim::DisciplinedClock& clock_;
  ServerPool& pool_;
  net::Link* last_hop_up_;
  net::Link* last_hop_down_;
  NtpClientParams params_;
  QueryEngine engine_;
  sim::PeriodicProcess process_;
  std::vector<ClockFilter> filters_;
  std::size_t updates_ = 0;
  std::size_t steps_ = 0;
  core::Duration last_offset_ = core::Duration::zero();
  std::size_t last_survivors_ = 0;
  double freq_integral_ppm_ = 0.0;
  std::size_t above_threshold_streak_ = 0;
  int streak_sign_ = 0;
};

}  // namespace mntp::ntp
