// Self-tuning of MNTP parameters (paper §7 future work: "we also plan to
// investigate self-tuning of parameter settings ... and to evaluate the
// trade-offs between MNTP's performance and the tuning of its
// parameters").
//
// The controller closes a simple loop over the live engine's telemetry:
// every adaptation interval it looks at the recent filter rejection rate.
// Many rejections mean the trend is stale or the channel is rough —
// sample more often (shorten the regular wait) so the trend stays fresh.
// A long clean streak means the clock model is stable — back off (lengthen
// the wait) and save requests/energy. The wait is clamped to a configured
// band, mirroring the accuracy/request-budget trade-off the offline tuner
// (tuner.h) explores exhaustively.
#pragma once

#include <array>
#include <cstddef>

#include "core/time.h"
#include "mntp/mntp_client.h"
#include "sim/simulation.h"

namespace mntp::protocol {

struct SelfTunerParams {
  core::Duration adapt_interval = core::Duration::minutes(10);
  core::Duration min_regular_wait = core::Duration::seconds(15);
  core::Duration max_regular_wait = core::Duration::minutes(30);
  /// Recent rejection rate above which sampling speeds up.
  double reject_rate_high = 0.25;
  /// Recent rejection rate below which sampling backs off (requires at
  /// least `min_observations` recent rounds).
  double reject_rate_low = 0.05;
  std::size_t min_observations = 4;
  /// Multiplicative wait adjustment per decision.
  double step_factor = 1.6;
};

class SelfTuner {
 public:
  SelfTuner(sim::Simulation& sim, MntpClient& client, SelfTunerParams params);

  /// Clamp the regular wait into the band and begin adapting; call
  /// after the client has started.
  void start();

  [[nodiscard]] std::size_t speedups() const { return speedups_; }
  [[nodiscard]] std::size_t backoffs() const { return backoffs_; }
  /// The regular wait currently in force.
  [[nodiscard]] core::Duration current_wait() const;

 private:
  void adapt();

  sim::Simulation& sim_;
  MntpClient& client_;
  SelfTunerParams params_;
  sim::PeriodicProcess process_;
  /// The engine's outcome tallies at the last adaptation.
  std::array<std::size_t, kSampleOutcomes> seen_outcomes_{};
  std::size_t speedups_ = 0;
  std::size_t backoffs_ = 0;
};

}  // namespace mntp::protocol
