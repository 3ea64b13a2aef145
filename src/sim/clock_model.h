// Local clock models.
//
// Each simulated host owns an oscillator whose time drifts away from true
// time. Following the measurement literature the paper builds on (Paxson's
// calibration work [45], Murdoch's skew study [42]), the model is a
// constant frequency skew — which dominates in practice — plus an
// Ornstein–Uhlenbeck frequency wander and a diurnal temperature-driven
// frequency term (the paper observes wired drift is "dependent on the
// temperature of the vendor-specific oscillator"). Each read advances the
// wander and its integral by their exact joint transition (sim/ou.h) and
// the temperature term in closed form, so the clock's law does not depend
// on how often it is read.
//
// `DisciplinedClock` layers correction state (phase steps and frequency
// compensation, the two knobs a clock discipline such as ntpd's PLL has)
// on top of the free-running oscillator.
#pragma once

#include "core/rng.h"
#include "core/time.h"

namespace mntp::sim {

/// Relaxation time of the wander; its stationary sd is s = diffusion *
/// sqrt(tau / 2). A week keeps the testbed's 4 h offset rms within 1% of a
/// random walk's (14.83 vs 14.97 ms), with s = 8.2 ppm (DESIGN.md §9).
inline constexpr core::Duration kWanderTau = core::Duration::hours(7 * 24);
inline constexpr core::Duration kTempPeriod = core::Duration::hours(24);

/// Free-running oscillator parameters. Signs follow the convention
/// offset = local - true: a positive skew means the local clock runs fast.
struct OscillatorParams {
  /// Phase offset at t = 0, in seconds.
  double initial_offset_s = 0.0;
  /// Constant frequency error in parts per million. Commodity crystals
  /// are typically within +-50 ppm; the paper's 4-hour free-run (Fig 12)
  /// shows a drift trend of roughly -20 ms/hour ~ -5.5 ppm.
  double constant_skew_ppm = 0.0;
  /// Diffusion of the OU wander: over h << kWanderTau its increment has
  /// sd wander_ppm_per_sqrt_s * sqrt(h), in ppm.
  double wander_ppm_per_sqrt_s = 0.0;
  /// Amplitude A of the temperature swing A sin(2 pi t / kTempPeriod), ppm.
  double temp_amplitude_ppm = 0.0;
};

/// A free-running local clock. Queries must be issued with non-decreasing
/// true time (the simulation only moves forward).
class OscillatorModel {
 public:
  OscillatorModel(OscillatorParams params, core::Rng rng);

  /// True offset (local - true) at true time t, in seconds. Advances
  /// internal wander state; t must be >= the last queried time.
  [[nodiscard]] double offset_at(core::TimePoint t);

 private:
  void advance_to(core::TimePoint t);

  OscillatorParams params_;
  core::Rng rng_;
  double wander_sd_ppm_;  // s
  core::TimePoint last_;
  double offset_s_;
  double wander_ppm_ = 0.0;
  double temp_cos_ = 1.0;  // cos of the temperature phase at last_
};

/// A disciplined clock: an oscillator plus correction state. This is the
/// system clock of a simulated host; SNTP/NTP/MNTP clients read it and
/// may step its phase or trim its frequency.
class DisciplinedClock {
 public:
  DisciplinedClock(OscillatorParams params, core::Rng rng)
      : osc_(params, std::move(rng)) {}

  /// Offset (local - true) of the *disciplined* clock at true time t,
  /// seconds.
  [[nodiscard]] double offset_at(core::TimePoint t);

  /// Local (disciplined) time at true time t.
  [[nodiscard]] core::TimePoint local_time(core::TimePoint t);

  /// Apply a phase step: local time jumps by `delta` (a measured offset
  /// of +x is corrected by stepping -x).
  void step(core::Duration delta);

  /// Set the frequency compensation applied from true time t onward, in
  /// ppm. Positive compensation speeds the disciplined clock up.
  void set_frequency_compensation(core::TimePoint t, double ppm);

  [[nodiscard]] double frequency_compensation_ppm() const { return comp_ppm_; }

 private:
  void integrate_comp(core::TimePoint t);

  OscillatorModel osc_;
  double corr_s_ = 0.0;        // accumulated phase correction
  double comp_ppm_ = 0.0;      // active frequency compensation
  core::TimePoint comp_since_; // last time the compensation integral advanced
  bool comp_started_ = false;
};

}  // namespace mntp::sim
