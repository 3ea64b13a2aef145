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
    : params_(params),
      // Head-to-head mode (no warm-up period) starts in the regular
      // phase; the filter still bootstraps its first min_warmup_samples
      // unconditionally.
      phase_(start_phase(params.warmup_period)),
      cycle_start_(start),
      filter_(filter_config(params)),
      last_emission_(start) {}

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
  RoundResult rr = judge(
      t, offsets_s,
      reset_due(t, params_.reset_period)
          ? std::optional<Phase>(start_phase(params_.warmup_period))
          : std::nullopt);
  if (warmup_complete(t, params_.warmup_period)) {
    end_warmup(t);
    rr.warmup_completed = true;
  }
  return rr;
}

MntpEngine::RoundResult MntpEngine::judge(core::TimePoint t,
                                          std::span<const double> offsets_s,
                                          std::optional<Phase> restart) {
  obs::ProfileScope profile(obs::spans::kEngineRound);
  ++rounds_;
  RoundResult rr;

  if (restart) {
    ++resets_;
    cycle_start_ = t;
    filter_.reset();
    phase_ = *restart;
    rr.reset_occurred = true;
    if (const obs::AmbientQuery q = obs::ambient_query(); q.tracer) {
      q.tracer->stage(q.id, t, "reset", obs::Reason::kNone);
    }
  }

  rr.phase = phase_;
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
  return rr;
}

void MntpEngine::end_warmup(core::TimePoint t) {
  filter_.prune_and_refit();
  withdraw_pruned();
  phase_ = Phase::kRegular;
  if (const obs::AmbientQuery q = obs::ambient_query(); q.tracer) {
    q.tracer->stage(q.id, t, "phase_transition", obs::Reason::kNone);
  }
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

void finish_round_trace(obs::QueryTracer& qt, obs::QueryId id,
                        core::TimePoint t, const MntpEngine::RoundResult& rr,
                        std::size_t sources) {
  if (!obs::recorded(id)) return;
  qt.finish(id, t,
            sources == 0 ? obs::Reason::kNoSamples : to_reason(rr.outcome),
            {{"phase", to_string(rr.phase)},
             {"offset_ms", rr.offset_s * 1e3},
             {"residual_ms", rr.corrected_s * 1e3},
             {"sources", static_cast<std::int64_t>(sources)}});
}

obs::QueryId trace_wake(obs::QueryTracer& qt, core::TimePoint t,
                        const net::WirelessHints& hints,
                        const MntpEngine::Wake& w, Phase phase) {
  const obs::QueryId id = qt.enabled() ? qt.begin(t, "round") : 0;
  if (obs::recorded(id)) {
    qt.stage(id, t, "gate", w.gate,
             {{"rssi_dbm", hints.rssi.value()},
              {"noise_dbm", hints.noise.value()},
              {"snr_margin_db", hints.snr_margin().value()}});
    if (!w.emits()) {
      qt.finish(id, t, obs::Reason::kChannelDefer,
                {{"phase", to_string(phase)}});
    }
  }
  return w.emits() ? id : 0;
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
