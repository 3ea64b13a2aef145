// MNTP protocol engine: Algorithm 1 as a pure, driver-agnostic state
// machine.
//
// The engine owns the wake decision (the channel gate and the
// max_deferral fallback), phase bookkeeping (warm-up → regular → reset),
// false-ticker rejection of multi-source rounds, and the drift trend
// filter. It is deliberately free of any simulation or network
// dependency so the *same* logic runs in two drivers, each of which calls
// wake() at every acquisition opportunity:
//
//   * MntpClient   — live, event-driven against the simulated testbed;
//   * tuner::emulate / search — trace-driven replay over recorded logs (§5.3).
//
// The paper's MNTP tuner exists precisely because the algorithm is
// replayable over traces; factoring the engine this way is what makes
// that possible without code duplication.
//
// The engine is a copyable value: the timeline probes and the registry
// counters live in the drivers, and the four swept Algorithm 1
// parameters are read only by the checks reset_due(), warmup_complete(),
// start_phase() and next_wait(). The tuner's shared-prefix replay
// (tuner.cc) decides those checks per configuration and copies the
// engine only where configurations disagree.
//
// The engine only tallies what it did (rounds(), deferrals(),
// forced_emissions(), resets(), outcome_count()). The registry counters
// those tallies feed (mntp.rounds, mntp.deferrals, mntp.resets,
// mntp.sample{outcome}) live in the drivers, through EngineCounters:
// MntpClient publishes each event as it happens, tuner::emulate publishes
// a replay's totals once.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/time.h"
#include "mntp/drift_filter.h"
#include "mntp/false_ticker.h"
#include "mntp/params.h"
#include "net/hints.h"
#include "obs/telemetry.h"

namespace mntp::protocol {

enum class Phase : std::uint8_t { kWarmup, kRegular };

/// What happened to one acquisition opportunity, for telemetry/plots.
enum class SampleOutcome : std::uint8_t {
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

  /// One acquisition opportunity's decision. `gate` is the gate stage's
  /// reason: kOk (favorableSNRCondition() holds), kChannelDefer, or
  /// kForcedEmission (closed, but max_deferral has passed since the last
  /// emission). An emission queries `sources` (`warmup_sources` in
  /// warm-up, one in the regular phase); a deferral looks at the channel
  /// again after `recheck_after`.
  struct Wake {
    obs::Reason gate = obs::Reason::kOk;
    std::size_t sources = 0;
    core::Duration recheck_after{};
    [[nodiscard]] bool emits() const {
      return gate != obs::Reason::kChannelDefer;
    }
  };
  /// Algorithm 1 steps 5/17 at t: emit when the channel is favourable,
  /// or, closed for longer than max_deferral since the last emission
  /// (the perpetually-unstable-channel fallback), emit anyway and let the
  /// filter judge the sample. Tallies the deferral or the forced
  /// emission. Defined here because the replay calls it on every step.
  [[nodiscard]] Wake wake(core::TimePoint t, const net::WirelessHints& hints) {
    obs::Reason gate = obs::Reason::kOk;
    if (!params_.thresholds.favorable(hints)) {
      const bool overdue = params_.max_deferral > core::Duration::zero() &&
                           t - last_emission_ > params_.max_deferral;
      if (!overdue) {
        ++deferrals_;
        return Wake{.gate = obs::Reason::kChannelDefer,
                    .recheck_after = params_.hint_recheck_interval};
      }
      gate = obs::Reason::kForcedEmission;
      ++forced_emissions_;
    }
    last_emission_ = t;
    return Wake{.gate = gate,
                .sources = phase_ == Phase::kWarmup ? params_.warmup_sources
                                                    : std::size_t{1}};
  }

  // --- The checks that read a swept Algorithm 1 parameter ---
  // on_round() and next_wait() pass params(); the tuner's replay passes
  // each configuration's own value.

  /// The reset period has elapsed at t: goto Step 1 (steps 23-24).
  [[nodiscard]] bool reset_due(core::TimePoint t,
                               core::Duration reset_period) const {
    return t - cycle_start_ >= reset_period;
  }
  /// The phase a cycle starts in: warm-up, or the regular phase when
  /// there is no warm-up period (head-to-head mode).
  [[nodiscard]] static Phase start_phase(core::Duration warmup_period) {
    return warmup_period == core::Duration::zero() ? Phase::kRegular
                                                   : Phase::kWarmup;
  }
  /// Warm-up ends at t (steps 11-13): the period has elapsed and the
  /// filter holds enough accepted offsets for a trend.
  [[nodiscard]] bool warmup_complete(core::TimePoint t,
                                     core::Duration warmup_period) const {
    return phase_ == Phase::kWarmup && t - cycle_start_ >= warmup_period &&
           filter_.accepted_count() >= params_.min_warmup_samples;
  }
  /// Wait before the next acquisition opportunity in the current phase.
  [[nodiscard]] core::Duration next_wait(core::Duration warmup_wait,
                                         core::Duration regular_wait) const {
    return phase_ == Phase::kWarmup ? warmup_wait : regular_wait;
  }
  [[nodiscard]] core::Duration next_wait() const {
    return next_wait(params_.warmup_wait_time, params_.regular_wait_time);
  }

  struct RoundResult {
    bool accepted = false;
    double offset_s = 0.0;
    double corrected_s = 0.0;
    SampleOutcome outcome = SampleOutcome::kRejectedFilter;
    /// The phase the sample was judged under (after a reset, before a
    /// warm-up completion).
    Phase phase = Phase::kWarmup;
    /// Set when this round completed the warm-up phase.
    bool warmup_completed = false;
    /// Set when the reset period elapsed and the engine restarted.
    bool reset_occurred = false;
  };

  /// Feed the measured offsets (seconds) of one acquisition round taken
  /// at time t. Zero, one, or `Wake::sources` entries may be present
  /// (failed queries simply do not contribute). Handles phase
  /// transitions and the reset period. The engine mints no query trace:
  /// a traced driver installs its round as the ambient query first, so
  /// the vote, filter, reset and warm-up stages attach to it, and closes
  /// it with finish_round_trace().
  RoundResult on_round(core::TimePoint t, const std::vector<double>& offsets_s);

  /// on_round() in two halves, for a driver that decides the checks
  /// itself. judge() counts the round, restarts the cycle in `restart`
  /// when the reset period has elapsed (nullopt: it has not), and judges
  /// the offsets: the false-ticker vote, then the trend filter.
  RoundResult judge(core::TimePoint t, std::span<const double> offsets_s,
                    std::optional<Phase> restart);
  /// Ends the warm-up phase, on a round where warmup_complete() holds.
  void end_warmup(core::TimePoint t);

  /// Hands `fold` every record no later round can change, in record
  /// order, and drops them. Pruning reaches back only into the current
  /// cycle, and only until the filter has bootstrapped and warm-up has
  /// ended, so what stays is at most the current cycle. A replay that
  /// copies the engine calls this to keep the copies small; records()
  /// and the *_offsets_ms() views then cover only what stays.
  template <class Fold>
  void retire_final_records(Fold&& fold) {
    auto end = records_.begin();
    if (phase_ == Phase::kRegular && !filter_.bootstrapping()) {
      end = records_.end();
    } else {
      while (end != records_.end() && end->t < cycle_start_) ++end;
    }
    for (auto it = records_.begin(); it != end; ++it) fold(*it);
    records_.erase(records_.begin(), end);
    // A buffer sized for a retired warm-up or cycle would stay with the
    // engine; drop it once it is mostly empty.
    if (records_.capacity() > kRetainedRecords &&
        records_.size() < records_.capacity() / 4) {
      records_.shrink_to_fit();
    }
  }

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
  /// Emissions forced by the max_deferral fallback.
  [[nodiscard]] std::size_t forced_emissions() const {
    return forced_emissions_;
  }
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

  /// Reported measured offsets in ms (for RMSE/summary computations).
  [[nodiscard]] std::vector<double> accepted_offsets_ms() const;
  /// Residuals-vs-trend of reported offsets in ms ("clock corrected
  /// drift" series of Fig 12).
  [[nodiscard]] std::vector<double> corrected_offsets_ms() const;
  /// Offsets the filter rejected or later pruned from the trend, in ms.
  [[nodiscard]] std::vector<double> rejected_offsets_ms() const;

 private:
  /// Mark this cycle's records the filter has pruned since the last call.
  void withdraw_pruned();

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

  /// Record capacity retire_final_records() never gives back.
  static constexpr std::size_t kRetainedRecords = 16;

  /// Total applied correction (steps + integrated compensation) at t.
  [[nodiscard]] double applied_correction_s(core::TimePoint t) const;
  std::vector<OffsetRecord> records_;
  core::TimePoint last_emission_;
  std::size_t deferrals_ = 0;
  std::size_t forced_emissions_ = 0;
  std::size_t resets_ = 0;
  std::size_t rounds_ = 0;
  std::array<std::size_t, kSampleOutcomes> outcome_counts_{};
};

/// Closes the traced round `id` with its verdict: the outcome's reason
/// (no_samples when `sources` is 0) and the phase the sample was judged
/// under. Every driver that mints a round closes it here; it builds
/// nothing for an unrecorded id (0, or sampled out).
void finish_round_trace(obs::QueryTracer& qt, obs::QueryId id,
                        core::TimePoint t, const MntpEngine::RoundResult& rr,
                        std::size_t sources);

/// Mints the query of the acquisition opportunity `w` and writes its gate
/// stage: w.gate with rssi_dbm, noise_dbm and snr_margin_db. A deferral's
/// query closes here (channel_defer, `phase`) and 0 is returned; an
/// emission returns the round's id (0 with the tracer off) for the driver
/// to install and close with finish_round_trace().
obs::QueryId trace_wake(obs::QueryTracer& qt, core::TimePoint t,
                        const net::WirelessHints& hints,
                        const MntpEngine::Wake& w, Phase phase);

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

 private:
  obs::ShardedCounter* rounds_;
  obs::ShardedCounter* deferrals_;
  obs::ShardedCounter* resets_;
  std::array<obs::ShardedCounter*, kSampleOutcomes> outcomes_{};
};

}  // namespace mntp::protocol
