// MNTP protocol engine: Algorithm 1 as a pure, driver-agnostic state
// machine.
//
// The engine owns phase bookkeeping (warm-up → regular → reset), the
// channel gate, false-ticker rejection of multi-source rounds, and the
// drift trend filter. It is deliberately free of any simulation or
// network dependency so the *same* logic runs in two drivers:
//
//   * MntpClient   — live, event-driven against the simulated testbed;
//   * tuner::Emulator — trace-driven replay over recorded logs (§5.3).
//
// The paper's MNTP tuner exists precisely because the algorithm is
// replayable over traces; factoring the engine this way is what makes
// that possible without code duplication.
//
// The engine only tallies what it did (rounds(), deferrals(), resets(),
// outcome_count()). The registry counters those tallies feed
// (mntp.rounds, mntp.deferrals, mntp.resets, mntp.sample{outcome}) live
// in the drivers, through EngineCounters: MntpClient publishes each event
// as it happens, tuner::emulate publishes a replay's totals once.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "core/time.h"
#include "mntp/drift_filter.h"
#include "mntp/false_ticker.h"
#include "mntp/params.h"
#include "net/hints.h"
#include "obs/telemetry.h"

namespace mntp::protocol {

enum class Phase { kWarmup, kRegular };

/// What happened to one acquisition opportunity, for telemetry/plots.
enum class SampleOutcome {
  kAcceptedWarmup,
  kAcceptedRegular,
  kRejectedFalseTicker,  // entire round discarded by the warm-up vote
  kRejectedFilter,       // trend filter rejected the combined offset
};
inline constexpr std::size_t kSampleOutcomes = 4;

[[nodiscard]] const char* to_string(SampleOutcome outcome);
[[nodiscard]] const char* to_string(Phase phase);

/// The query-trace verdict reason corresponding to a round outcome
/// (obs/reason_codes.h). The mapping is 1:1 so the causation table in
/// `mntp-inspect explain` reconciles exactly against the mntp.sample
/// outcome counters.
[[nodiscard]] obs::Reason to_reason(SampleOutcome outcome);

struct OffsetRecord {
  core::TimePoint t;
  double offset_s = 0.0;     ///< combined measured offset
  double corrected_s = 0.0;  ///< residual against the drift trend
  SampleOutcome outcome = SampleOutcome::kAcceptedRegular;
  Phase phase = Phase::kWarmup;
  /// Accepted while the filter was still bootstrapping its trend; the
  /// residual is not yet meaningful for such records.
  bool bootstrap = false;
  /// Accepted, then dropped from the trend by the outlier prune at
  /// bootstrap completion or warm-up end (§4.2).
  bool pruned = false;

  /// A reported offset: accepted and still part of the trend (§5 reports
  /// only what survives the filter).
  [[nodiscard]] bool reported() const {
    return !pruned && (outcome == SampleOutcome::kAcceptedWarmup ||
                       outcome == SampleOutcome::kAcceptedRegular);
  }
};

class MntpEngine {
 public:
  MntpEngine(MntpParams params, core::TimePoint start);

  [[nodiscard]] Phase phase() const { return phase_; }

  /// favorableSNRCondition(): may a request be emitted under these hints?
  [[nodiscard]] bool gate(const net::WirelessHints& hints) const {
    return params_.thresholds.favorable(hints);
  }

  /// Record a deferral (gate closed at an acquisition opportunity).
  void note_deferral(core::TimePoint t);

  /// Sources the driver should query for the next round: `warmup_sources`
  /// in warm-up, one in the regular phase.
  [[nodiscard]] std::size_t sources_to_query() const;

  /// Wait before the next acquisition opportunity in the current phase.
  [[nodiscard]] core::Duration next_wait() const;

  struct RoundResult {
    bool accepted = false;
    double offset_s = 0.0;
    double corrected_s = 0.0;
    SampleOutcome outcome = SampleOutcome::kRejectedFilter;
    /// Set when this round completed the warm-up phase.
    bool warmup_completed = false;
    /// Set when the reset period elapsed and the engine restarted.
    bool reset_occurred = false;
  };

  /// Feed the measured offsets (seconds) of one acquisition round taken
  /// at time t. Zero, one, or `sources_to_query()` entries may be present
  /// (failed queries simply do not contribute). Handles phase
  /// transitions and the reset period.
  RoundResult on_round(core::TimePoint t, const std::vector<double>& offsets_s);

  /// Driver notification that it stepped the system clock by `step_s`
  /// (positive = clock advanced). The engine keeps fitting the trend in
  /// the *uncorrected* offset domain so the line stays linear across
  /// steps.
  void note_clock_step(double step_s);

  /// Driver notification that it changed the clock's frequency
  /// compensation to `ppm` at time t (correctSystemClockDrift). The
  /// engine integrates the compensation so the uncorrected trend domain
  /// stays linear across frequency trims as well.
  void note_frequency_compensation(core::TimePoint t, double ppm);

  /// Current drift estimate, seconds per second.
  [[nodiscard]] std::optional<double> drift_s_per_s() const {
    return filter_.drift_s_per_s();
  }

  /// Trend prediction of the *measured* offset at time t (uncorrected
  /// trend minus the accumulated steps).
  [[nodiscard]] std::optional<double> predict_offset_s(core::TimePoint t) const;

  // --- Telemetry ---
  [[nodiscard]] const std::vector<OffsetRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t deferrals() const { return deferrals_; }
  [[nodiscard]] std::size_t resets() const { return resets_; }
  [[nodiscard]] std::size_t rounds() const { return rounds_; }
  /// Rounds with at least one offset that ended in `outcome`.
  [[nodiscard]] std::size_t outcome_count(SampleOutcome outcome) const {
    return outcome_counts_[static_cast<std::size_t>(outcome)];
  }
  [[nodiscard]] const MntpParams& params() const { return params_; }

  /// Runtime parameter adjustment (self-tuning, the paper's future work):
  /// changes take effect at the next wait computation.
  void set_regular_wait_time(core::Duration wait) {
    params_.regular_wait_time = wait;
  }
  void set_warmup_wait_time(core::Duration wait) {
    params_.warmup_wait_time = wait;
  }

  /// Reported measured offsets in ms (for RMSE/summary computations).
  [[nodiscard]] std::vector<double> accepted_offsets_ms() const;
  /// Residuals-vs-trend of reported offsets in ms ("clock corrected
  /// drift" series of Fig 12).
  [[nodiscard]] std::vector<double> corrected_offsets_ms() const;
  /// Offsets the filter rejected or later pruned from the trend, in ms.
  [[nodiscard]] std::vector<double> rejected_offsets_ms() const;

 private:
  void restart(core::TimePoint t);
  void enter_regular();
  /// Mark this cycle's records the filter has pruned since the last call.
  void withdraw_pruned();

  // The ambient obs::Telemetry::global() at construction, for
  // query-trace stages. The engine stays simulation-free:
  // obs depends only on core.
  obs::Telemetry* telemetry_ = nullptr;
  // Timeline probes (obs/timeseries.h): inert unless the recorder is
  // capturing at construction. Unregister with the engine, so a bench
  // running several experiments in sequence gets one series per engine.
  obs::ProbeHandle offset_probe_;
  obs::ProbeHandle drift_probe_;
  std::optional<double> last_accepted_offset_s_;

  MntpParams params_;
  Phase phase_ = Phase::kWarmup;
  core::TimePoint cycle_start_;
  DriftFilter filter_;
  /// Reused by the per-round false-ticker vote so steady-state rounds
  /// don't allocate a survivors vector.
  std::vector<std::size_t> survivors_scratch_;
  double cum_step_s_ = 0.0;
  double cum_freq_s_ = 0.0;        // integrated frequency compensation
  double comp_ppm_ = 0.0;          // active compensation
  core::TimePoint comp_since_;     // last integration point
  bool comp_active_ = false;

  /// Total applied correction (steps + integrated compensation) at t.
  [[nodiscard]] double applied_correction_s(core::TimePoint t) const;
  std::vector<OffsetRecord> records_;
  std::size_t deferrals_ = 0;
  std::size_t resets_ = 0;
  std::size_t rounds_ = 0;
  std::array<std::size_t, kSampleOutcomes> outcome_counts_{};
  std::size_t accepted_in_cycle_ = 0;
};

/// The registry counters of the engine's tallies: mntp.rounds,
/// mntp.deferrals, mntp.resets and mntp.sample{outcome}. Drivers own
/// one; live drivers publish per event (count_*), trace replays publish
/// their totals once (add_totals). Either way the registry ends up with
/// the same totals.
class EngineCounters {
 public:
  explicit EngineCounters(obs::MetricsRegistry& metrics);

  void count_deferral() const { deferrals_->inc(); }
  /// One on_round() call; `had_offsets` is whether it was fed any.
  void count_round(const MntpEngine::RoundResult& rr, bool had_offsets) const;
  /// Add every tally of `engine` at once.
  void add_totals(const MntpEngine& engine) const;

  /// The deferral counter, for the mntp.deferrals timeline probe.
  [[nodiscard]] const obs::ShardedCounter* deferrals() const {
    return deferrals_;
  }

 private:
  obs::ShardedCounter* rounds_;
  obs::ShardedCounter* deferrals_;
  obs::ShardedCounter* resets_;
  std::array<obs::ShardedCounter*, kSampleOutcomes> outcomes_{};
};

}  // namespace mntp::protocol
