// MNTP trend-line drift filter (paper §4.2, Algorithm 1 steps 11–14 and
// the estimateDrift function; §5.3 re-estimation refinement).
//
// The filter fits a first-degree least-squares polynomial (offset vs
// time) through accepted offsets — clock skew's constant component
// dominates its variable component, so a line is the right model — then
// judges each new offset against the extrapolated trend: compute the
// squared error of the new sample versus the prediction and reject it if
// that squared error exceeds the mean plus one standard deviation of the
// accepted samples' squared errors. Accepted samples extend the trend;
// per the §5.3 fix the drift estimate is re-fitted on every acceptance
// (optionally disabled for the ablation study).
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "core/linreg.h"
#include "core/time.h"

namespace mntp::protocol {

struct DriftFilterConfig {
  /// Samples accepted unconditionally while the trend bootstraps.
  std::size_t bootstrap_samples = 10;
  /// Re-fit the trend after every accepted sample (§5.3). When false the
  /// fit is frozen once bootstrap completes.
  bool reestimate_each_sample = true;
  /// Retain at most this many samples in the fit (0 = unbounded). A
  /// bounded window lets the trend follow slowly-varying skew.
  std::size_t max_samples = 0;
  /// Residual statistics (the mean + sd gate) are computed over the most
  /// recent this-many accepted samples, so one early outlier cannot
  /// permanently widen the gate (variance avalanche).
  std::size_t stats_window = 40;
  /// Floor on the acceptance band (seconds): a sample within this
  /// distance of the trend is always accepted even when the residual
  /// history is degenerate (e.g. a bootstrap window whose points the
  /// line fits exactly, which would otherwise collapse the mean+sd gate
  /// to zero and reject everything — the §5.3 pathology).
  double min_accept_band_s = 0.015;
  /// After this many consecutive gate rejections the next out-of-gate
  /// sample is admitted anyway (0 disables the hatch, the default). The
  /// gate's statistics are computed over *accepted* samples only, so a
  /// trend mis-fitted from a short noisy bootstrap can reject every
  /// later sample forever — nothing ever widens the gate or corrects
  /// the fit. Admitting one sample both pulls the fit toward reality
  /// and widens the gate, after which normal acceptance resumes.
  /// Disabled by default because Algorithm 1's reset_period already
  /// re-learns the trend in normal deployments (and a coherent
  /// timescale step, e.g. a leap second, *should* stay rejected until
  /// that reset); enable it in configurations that never reset.
  std::size_t max_consecutive_rejections = 0;
};

/// Decision record for one offered sample.
struct FilterDecision {
  bool accepted = false;
  /// True when a trend existed at offer time, i.e. `predicted_s` and
  /// `residual_s` are real extrapolations. Callers must branch on this,
  /// not on `predicted_s != 0.0`: a legitimate trend crossing zero
  /// predicts exactly 0.0.
  bool has_prediction = false;
  /// Trend prediction at the sample time (seconds); 0 when no trend yet.
  double predicted_s = 0.0;
  /// Sample minus prediction (the residual), seconds.
  double residual_s = 0.0;
  /// True while the filter was still bootstrapping.
  bool bootstrap = false;
  /// True when the sample was out of gate but admitted by the
  /// consecutive-rejection escape hatch.
  bool forced = false;
};

class DriftFilter {
 public:
  explicit DriftFilter(DriftFilterConfig config = {});

  /// Offer a sample: measured offset (seconds) observed at time t.
  FilterDecision offer(core::TimePoint t, double offset_s);

  /// Prune bootstrap outliers and re-fit: drops accepted samples whose
  /// squared residual against the current fit exceeds mean + 1 sd, then
  /// refits on the survivors. Called when the warm-up phase completes.
  void prune_and_refit();

  /// True when pruning has dropped samples take_pruned_times_s() has not
  /// yet handed out.
  [[nodiscard]] bool has_pruned() const { return !pruned_t_s_.empty(); }

  /// Times (TimePoint::to_seconds) of the accepted samples pruning has
  /// dropped since the last call, including the prune offer() runs when
  /// the bootstrap completes. The trend discarded them, so a caller that
  /// reports accepted samples withdraws these.
  [[nodiscard]] std::vector<double> take_pruned_times_s() {
    return std::exchange(pruned_t_s_, {});
  }

  /// Estimated drift (slope), seconds of offset per second of time —
  /// multiply by 1e6 for ppm. nullopt until a trend exists.
  [[nodiscard]] std::optional<double> drift_s_per_s() const;

  /// Trend prediction at time t; nullopt until a trend exists.
  [[nodiscard]] std::optional<double> predict_s(core::TimePoint t) const;

  [[nodiscard]] std::size_t accepted_count() const { return samples_.size(); }
  [[nodiscard]] std::size_t rejected_count() const { return rejected_; }
  /// True until `bootstrap_samples` samples have been accepted once.
  /// Completion is latched: pruning outliers afterwards does not re-open
  /// the unconditional-accept window.
  [[nodiscard]] bool bootstrapping() const { return !bootstrap_done_; }

  void reset();

 private:
  struct Sample {
    double t_s;
    double offset_s;
  };

  /// Rebuild the running accumulator from `samples_` and refresh `fit_`.
  /// Needed whenever the sample set shrinks (prune, window eviction):
  /// the accumulator centers on the first sample's x, so a new first
  /// sample means a new origin. Append-only growth never calls this —
  /// `offer` extends the accumulator in O(1), which is bit-identical to
  /// a from-scratch refit because this rebuild is itself just
  /// sequential `IncrementalLinReg::add` calls over the same sequence.
  void rebuild_fit();
  /// Mean + sd of the squared residuals of the last `stats_window`
  /// samples against `fit_` (which must exist): the gate before the
  /// `min_accept_band_s` floor.
  [[nodiscard]] double window_gate_sq() const;
  [[nodiscard]] double time_axis(core::TimePoint t) const {
    return t.to_seconds();
  }

  DriftFilterConfig config_;
  std::vector<Sample> samples_;
  core::IncrementalLinReg acc_;
  std::optional<core::LinearFit> fit_;
  /// Scratch for squared residuals in prune_and_refit, reused across
  /// calls; empty between them, so a copy of the filter does not copy it.
  std::vector<double> scratch_sq_;
  std::vector<double> pruned_t_s_;
  std::size_t rejected_ = 0;
  std::size_t consecutive_rejections_ = 0;
  bool bootstrap_done_ = false;
};

}  // namespace mntp::protocol
