#include "mntp/engine.h"

#include <cstdint>
#include <string>

#include "obs/metric_names.h"
#include "obs/profiler.h"

namespace mntp::protocol {

namespace {

DriftFilterConfig filter_config(const MntpParams& p) {
  return DriftFilterConfig{
      .bootstrap_samples = p.min_warmup_samples,
      .reestimate_each_sample = p.reestimate_drift_each_sample,
      .max_samples = 0,
      .max_consecutive_rejections = p.filter_max_consecutive_rejections,
  };
}

}  // namespace

const char* to_string(SampleOutcome outcome) {
  switch (outcome) {
    case SampleOutcome::kAcceptedWarmup: return "accepted_warmup";
    case SampleOutcome::kAcceptedRegular: return "accepted_regular";
    case SampleOutcome::kRejectedFalseTicker: return "rejected_false_ticker";
    case SampleOutcome::kRejectedFilter: return "rejected_filter";
  }
  return "unknown";
}

const char* to_string(Phase phase) {
  return phase == Phase::kWarmup ? "warmup" : "regular";
}

obs::Reason to_reason(SampleOutcome outcome) {
  switch (outcome) {
    case SampleOutcome::kAcceptedWarmup:
      return obs::Reason::kAcceptedWarmup;
    case SampleOutcome::kAcceptedRegular:
      return obs::Reason::kAcceptedRegular;
    case SampleOutcome::kRejectedFalseTicker:
      return obs::Reason::kFalseTicker;
    case SampleOutcome::kRejectedFilter:
      return obs::Reason::kTrendOutlier;
  }
  return obs::Reason::kNone;
}

MntpEngine::MntpEngine(MntpParams params, core::TimePoint start)
    : telemetry_(&obs::Telemetry::global()),
      params_(params),
      cycle_start_(start),
      filter_(filter_config(params)) {
  obs::TimeSeriesRecorder& ts = telemetry_->timeseries();
  offset_probe_ = ts.probe(obs::metric_names::kTsMntpOffsetMs, {},
                           [this](core::TimePoint) -> std::optional<double> {
                             if (!last_accepted_offset_s_) return std::nullopt;
                             return *last_accepted_offset_s_ * 1e3;
                           });
  drift_probe_ = ts.probe(obs::metric_names::kTsMntpDriftPpm, {},
                          [this](core::TimePoint) -> std::optional<double> {
                            const std::optional<double> d = drift_s_per_s();
                            if (!d) return std::nullopt;
                            return *d * 1e6;
                          });
  if (params_.warmup_period == core::Duration::zero()) {
    // Head-to-head mode: no distinct warm-up; the filter still
    // bootstraps its first min_warmup_samples unconditionally.
    phase_ = Phase::kRegular;
  }
}

void MntpEngine::note_deferral(core::TimePoint t) {
  ++deferrals_;
  // Drivers that own a round trace (MntpClient) record the gate detail
  // and the verdict themselves — they install the round as ambient
  // before calling us. With no ambient (tuner emulate, direct engine
  // drivers), mint a one-stage round so deferral causes still land in
  // the per-query store and the causation table stays complete.
  obs::QueryTracer& qt = telemetry_->query_tracer();
  if (qt.enabled() && obs::ambient_query().id == 0) {
    const obs::QueryId id = qt.begin(t, "round");
    qt.finish(id, t, obs::Reason::kChannelDefer,
              {{"phase", std::string(to_string(phase_))}});
  }
}

std::size_t MntpEngine::sources_to_query() const {
  return phase_ == Phase::kWarmup ? params_.warmup_sources : 1;
}

core::Duration MntpEngine::next_wait() const {
  return phase_ == Phase::kWarmup ? params_.warmup_wait_time
                                  : params_.regular_wait_time;
}

void MntpEngine::restart(core::TimePoint t) {
  ++resets_;
  cycle_start_ = t;
  filter_.reset();
  accepted_in_cycle_ = 0;
  phase_ = params_.warmup_period == core::Duration::zero() ? Phase::kRegular
                                                           : Phase::kWarmup;
}

void MntpEngine::enter_regular() {
  filter_.prune_and_refit();
  withdraw_pruned();
  phase_ = Phase::kRegular;
}

void MntpEngine::withdraw_pruned() {
  if (!filter_.has_pruned()) return;
  for (const double t_s : filter_.take_pruned_times_s()) {
    // Pruned samples belong to the current cycle; search it backwards.
    for (auto it = records_.rbegin();
         it != records_.rend() && it->t >= cycle_start_; ++it) {
      if (it->reported() && it->t.to_seconds() == t_s) {
        it->pruned = true;
        break;
      }
    }
  }
}

void MntpEngine::note_clock_step(double step_s) { cum_step_s_ += step_s; }

void MntpEngine::note_frequency_compensation(core::TimePoint t, double ppm) {
  if (comp_active_ && t > comp_since_) {
    cum_freq_s_ += comp_ppm_ * 1e-6 * (t - comp_since_).to_seconds();
  }
  comp_ppm_ = ppm;
  comp_since_ = t;
  comp_active_ = true;
}

double MntpEngine::applied_correction_s(core::TimePoint t) const {
  double total = cum_step_s_ + cum_freq_s_;
  if (comp_active_ && t > comp_since_) {
    total += comp_ppm_ * 1e-6 * (t - comp_since_).to_seconds();
  }
  return total;
}

std::optional<double> MntpEngine::predict_offset_s(core::TimePoint t) const {
  const auto p = filter_.predict_s(t);
  if (!p) return std::nullopt;
  return *p - applied_correction_s(t);
}

MntpEngine::RoundResult MntpEngine::on_round(
    core::TimePoint t, const std::vector<double>& offsets_s) {
  obs::ProfileScope profile(obs::spans::kEngineRound);
  ++rounds_;
  RoundResult rr;

  // Query-trace ownership: a driver that minted a round trace (the
  // MntpClient) installs it as ambient and emits the verdict itself;
  // with no ambient and tracing on (tuner emulate, direct engine
  // drivers) mint our own round here so the vote/filter decision stages
  // still attach to a query and every round gets a verdict.
  obs::QueryTracer& qt = telemetry_->query_tracer();
  obs::QueryId round_id = obs::ambient_query().id;
  const bool owned = round_id == 0 && qt.enabled();
  if (owned) round_id = qt.begin(t, "round");
  std::optional<obs::ActiveQueryScope> trace_scope;
  if (owned) trace_scope.emplace(qt, round_id);

  // Reset period elapsed: goto Step 1 (Algorithm 1 steps 23-24).
  if (t - cycle_start_ >= params_.reset_period) {
    restart(t);
    rr.reset_occurred = true;
    if (round_id != 0) qt.stage(round_id, t, "reset", obs::Reason::kNone);
  }

  // The phase the sample is judged under; the warm-up completion check
  // below can advance phase_ before the verdict is emitted.
  const Phase decision_phase = phase_;
  if (!offsets_s.empty()) {
    // Multi-source false-ticker vote (warm-up; a single source passes
    // through untouched). The survivor buffer is reused round to round.
    reject_false_tickers(offsets_s, survivors_scratch_, t);
    const auto& survivors = survivors_scratch_;
    const bool any_rejected = survivors.size() != offsets_s.size();
    const double measured = combine_surviving_offsets(offsets_s, survivors);
    // Uncorrected domain: add back the corrections the driver applied so
    // the trend stays a single line across clock steps/frequency trims.
    const double uncorrected = measured + applied_correction_s(t);

    const FilterDecision fd = filter_.offer(t, uncorrected);
    rr.offset_s = measured;
    // Residual against the trend when one exists; raw measured offset
    // otherwise. `has_prediction`, not `predicted_s != 0.0` — a trend
    // crossing zero predicts exactly 0.0 and its residual is still the
    // right corrected value.
    rr.corrected_s = fd.accepted || fd.has_prediction
                         ? fd.residual_s
                         : measured;
    if (fd.accepted) {
      rr.accepted = true;
      ++accepted_in_cycle_;
      last_accepted_offset_s_ = measured;
      rr.outcome = phase_ == Phase::kWarmup ? SampleOutcome::kAcceptedWarmup
                                            : SampleOutcome::kAcceptedRegular;
    } else {
      rr.outcome = SampleOutcome::kRejectedFilter;
    }
    // A round whose every member was voted out never reaches the filter
    // in the paper's description; we surface the vote in telemetry when
    // it bit but the combined offset was still rejected downstream.
    if (any_rejected && !fd.accepted) {
      rr.outcome = SampleOutcome::kRejectedFalseTicker;
    }
    records_.push_back(OffsetRecord{.t = t,
                                    .offset_s = measured,
                                    .corrected_s = rr.corrected_s,
                                    .outcome = rr.outcome,
                                    .phase = phase_,
                                    .bootstrap = fd.bootstrap});
    withdraw_pruned();
    ++outcome_counts_[static_cast<std::size_t>(rr.outcome)];
  }

  // Warm-up completion check (Algorithm 1 steps 11-13): period elapsed
  // and enough recorded offsets for a trend.
  if (phase_ == Phase::kWarmup &&
      t - cycle_start_ >= params_.warmup_period &&
      filter_.accepted_count() >= params_.min_warmup_samples) {
    enter_regular();
    rr.warmup_completed = true;
    if (round_id != 0) {
      qt.stage(round_id, t, "phase_transition", obs::Reason::kNone);
    }
  }
  if (owned) {
    qt.finish(round_id, t,
              offsets_s.empty() ? obs::Reason::kNoSamples
                                : to_reason(rr.outcome),
              {{"phase", std::string(to_string(decision_phase))},
               {"offset_ms", rr.offset_s * 1e3},
               {"residual_ms", rr.corrected_s * 1e3},
               {"sources", static_cast<std::int64_t>(offsets_s.size())}});
  }
  return rr;
}

std::vector<double> MntpEngine::accepted_offsets_ms() const {
  std::vector<double> out;
  for (const OffsetRecord& r : records_) {
    if (r.reported()) out.push_back(r.offset_s * 1e3);
  }
  return out;
}

std::vector<double> MntpEngine::corrected_offsets_ms() const {
  std::vector<double> out;
  for (const OffsetRecord& r : records_) {
    // Bootstrap acceptances have no meaningful trend residual yet.
    if (r.reported() && !r.bootstrap) out.push_back(r.corrected_s * 1e3);
  }
  return out;
}

std::vector<double> MntpEngine::rejected_offsets_ms() const {
  std::vector<double> out;
  for (const OffsetRecord& r : records_) {
    if (!r.reported()) out.push_back(r.offset_s * 1e3);
  }
  return out;
}

EngineCounters::EngineCounters(obs::MetricsRegistry& metrics)
    : rounds_(metrics.counter(obs::metric_names::kMntpRounds)),
      deferrals_(metrics.counter(obs::metric_names::kMntpDeferrals)),
      resets_(metrics.counter(obs::metric_names::kMntpResets)) {
  for (std::size_t i = 0; i < kSampleOutcomes; ++i) {
    outcomes_[i] = metrics.counter(
        obs::metric_names::kMntpSample,
        obs::Labels{{"outcome", to_string(static_cast<SampleOutcome>(i))}});
  }
}

void EngineCounters::count_round(const MntpEngine::RoundResult& rr,
                                 bool had_offsets) const {
  rounds_->inc();
  if (rr.reset_occurred) resets_->inc();
  if (had_offsets) outcomes_[static_cast<std::size_t>(rr.outcome)]->inc();
}

void EngineCounters::add_totals(const MntpEngine& engine) const {
  rounds_->inc(engine.rounds());
  deferrals_->inc(engine.deferrals());
  resets_->inc(engine.resets());
  for (std::size_t i = 0; i < kSampleOutcomes; ++i) {
    outcomes_[i]->inc(engine.outcome_count(static_cast<SampleOutcome>(i)));
  }
}

}  // namespace mntp::protocol
