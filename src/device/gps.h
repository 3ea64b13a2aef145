// GPS time source model.
//
// §3.4 weighs GPS as an alternative corrector and rejects it for general
// deployment: availability depends on location ("GPS valleys such as
// buildings and tunnels"), many devices lack receivers or prohibit
// GPS-based time (iOS), and fixes are power-hungry. This model lets the
// comparison benches quantify those trade-offs: a two-state
// (open-sky/denied) availability process, a time-to-fix that stretches
// when signal is marginal, a small residual error on delivered fixes
// (OS-level timestamping, not raw receiver precision), and a fixed energy
// cost per fix attempt.
#pragma once

#include <cstddef>

#include "core/rng.h"
#include "core/time.h"
#include "sim/clock_model.h"
#include "sim/simulation.h"

namespace mntp::device {

struct GpsParams {
  /// Mean sojourns of the availability process.
  core::Duration mean_open_sky = core::Duration::minutes(40);
  core::Duration mean_denied = core::Duration::minutes(20);
  /// Fix acquisition time when the sky is open (exponential mean).
  core::Duration mean_time_to_fix = core::Duration::seconds(8);
  /// Attempts give up after this long (denied environments).
  core::Duration fix_timeout = core::Duration::seconds(30);
  /// Residual clock error after applying a fix (uniform in ±bound) — the
  /// OS delivery path, not the receiver, dominates.
  core::Duration fix_error_bound = core::Duration::milliseconds(15);
  /// Cadence at which the device attempts fixes.
  core::Duration fix_interval = core::Duration::minutes(10);
  /// Energy per fix attempt (receiver powered through acquisition),
  /// millijoules. VTrack-class measurements put continuous GPS at
  /// ~400 mW; a 10 s acquisition is ~4 J.
  double energy_per_attempt_mj = 4000.0;
};

/// Periodically attempts GPS fixes and steps the clock on success.
class GpsTimeSource {
 public:
  GpsTimeSource(sim::Simulation& sim, sim::DisciplinedClock& clock,
                GpsParams params, core::Rng rng);

  void start();

  /// True when satellites are acquirable at `now` (open-sky state).
  [[nodiscard]] bool available(core::TimePoint now);

  [[nodiscard]] std::size_t attempts() const { return attempts_; }
  [[nodiscard]] std::size_t fixes() const { return fixes_; }
  [[nodiscard]] double energy_mj() const { return energy_mj_; }

 private:
  void attempt_fix();
  void advance_to(core::TimePoint t);

  sim::Simulation& sim_;
  sim::DisciplinedClock& clock_;
  GpsParams params_;
  core::Rng rng_;
  sim::PeriodicProcess process_;
  bool open_sky_ = true;
  core::TimePoint next_transition_;
  core::TimePoint last_;
  std::size_t attempts_ = 0;
  std::size_t fixes_ = 0;
  double energy_mj_ = 0.0;
};

}  // namespace mntp::device
