#include "mntp/mntp_client.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/query_trace.h"

namespace mntp::protocol {

MntpClient::MntpClient(sim::Simulation& sim, sim::DisciplinedClock& clock,
                       ntp::ServerPool& pool, net::WirelessChannel& channel,
                       MntpParams params, core::Rng /*unused*/,
                       ntp::QueryOptions query_options)
    : sim_(sim),
      clock_(clock),
      pool_(pool),
      channel_(channel),
      params_(params),
      query_options_(query_options),
      query_engine_(sim, clock),
      engine_counters_(sim.telemetry().metrics()) {
  obs::MetricsRegistry& m = sim_.telemetry().metrics();
  requests_counter_ = m.counter(obs::metric_names::kMntpClientRequests);
  forced_counter_ = m.counter(obs::metric_names::kMntpClientForcedEmissions);
  clock_steps_counter_ = m.counter(obs::metric_names::kMntpClientClockSteps);
  gate_probe_ = sim_.telemetry().timeseries().probe(
      obs::metric_names::kTsMntpGateState, {},
      [this](core::TimePoint) -> std::optional<double> {
        if (hint_log_.empty()) return std::nullopt;
        const HintRecord& h = hint_log_.back();
        if (!h.emitted) return 0.0;
        return h.favorable ? 1.0 : 2.0;
      });
}

void MntpClient::start() {
  engine_ = std::make_unique<MntpEngine>(params_, sim_.now());
  last_accepted_offset_s_.reset();
  // Registered in this order with each engine, so a bench running several
  // experiments in sequence gets one series of each per engine.
  obs::TimeSeriesRecorder& ts = sim_.telemetry().timeseries();
  offset_probe_ = ts.probe(obs::metric_names::kTsMntpOffsetMs, {},
                           [this](core::TimePoint) -> std::optional<double> {
                             if (!last_accepted_offset_s_) return std::nullopt;
                             return *last_accepted_offset_s_ * 1e3;
                           });
  drift_probe_ = ts.probe(obs::metric_names::kTsMntpDriftPpm, {},
                          [this](core::TimePoint) -> std::optional<double> {
                            const std::optional<double> d =
                                engine_->drift_s_per_s();
                            if (!d) return std::nullopt;
                            return *d * 1e6;
                          });
  deferral_probe_ = ts.counter_probe(
      obs::metric_names::kTsMntpDeferrals, {},
      [this] { return engine_->deferrals(); });
  sim_.after(core::Duration::zero(), [this] { attempt(); });
}

void MntpClient::attempt() {
  const core::TimePoint now = sim_.now();
  const net::WirelessHints hints = channel_.observe_hints(now);
  const MntpEngine::Wake w = engine_->wake(now, hints);
  hint_log_.push_back(HintRecord{.hints = hints,
                                 .favorable = w.gate == obs::Reason::kOk,
                                 .emitted = w.emits()});
  const obs::QueryId id = trace_wake(sim_.telemetry().query_tracer(), now,
                                     hints, w, engine_->phase());
  if (!w.emits()) {
    engine_counters_.count_deferral();
    sim_.after(w.recheck_after, [this] { attempt(); });
    return;
  }
  if (w.gate == obs::Reason::kForcedEmission) forced_counter_->inc();
  round_trace_ = id;
  run_round(w.sources);
}

void MntpClient::run_round(std::size_t sources) {
  // Pick distinct pool members: getOffsetUsingMultipleSources() in warm-up
  // (the paper queries 0/1/3.pool.ntp.org in parallel), a single source in
  // the regular phase.
  const std::size_t want = std::min(sources, pool_.size());
  std::vector<std::size_t> chosen;
  while (chosen.size() < want) {
    const std::size_t idx = pool_.pick_index();
    if (std::find(chosen.begin(), chosen.end(), idx) == chosen.end()) {
      chosen.push_back(idx);
    }
  }

  auto offsets = std::make_shared<std::vector<double>>();
  auto outstanding = std::make_shared<std::size_t>(chosen.size());
  // Exchanges minted inside query() parent themselves on the ambient
  // query at call time — install the round so the per-server traces
  // link back to it.
  obs::ActiveQueryScope scope(sim_.telemetry().query_tracer(), round_trace_);
  for (const std::size_t idx : chosen) {
    ++requests_sent_;
    requests_counter_->inc();
    const ntp::ServerEndpoint ep =
        pool_.endpoint(idx, &channel_.uplink(), &channel_.downlink());
    query_engine_.query(
        ep, query_options_,
        [this, offsets, outstanding](core::Result<ntp::SntpSample> result) {
          if (result.ok()) {
            offsets->push_back(result.value().offset.to_seconds());
          }
          if (--*outstanding == 0) finish_round(std::move(*offsets));
        });
  }
}

void MntpClient::finish_round(std::vector<double> offsets_s) {
  const core::TimePoint now = sim_.now();
  obs::QueryTracer& qt = sim_.telemetry().query_tracer();
  const obs::QueryId round_id = round_trace_;
  round_trace_ = 0;
  MntpEngine::RoundResult rr;
  {
    // Install the round so the engine's vote/filter stages attach to it;
    // the verdict is ours to write.
    obs::ActiveQueryScope scope(qt, round_id);
    rr = engine_->on_round(now, offsets_s);
  }
  engine_counters_.count_round(rr, !offsets_s.empty());
  if (rr.accepted) last_accepted_offset_s_ = rr.offset_s;

  if (rr.accepted && params_.apply_corrections_to_clock &&
      engine_->phase() == Phase::kRegular) {
    // correctSystemClock(offset): step by the measured offset.
    clock_.step(core::Duration::from_seconds(rr.offset_s));
    engine_->note_clock_step(rr.offset_s);
    clock_steps_counter_->inc();
    if (obs::recorded(round_id)) {
      qt.stage(round_id, now, "clock_step", obs::Reason::kNone,
               {{"step_ms", rr.offset_s * 1e3}});
    }
  }
  finish_round_trace(qt, round_id, now, rr, offsets_s.size());
  if (rr.warmup_completed && params_.correct_drift &&
      params_.apply_corrections_to_clock) {
    // correctSystemClockDrift(driftEst): trim the clock frequency by the
    // estimated drift (positive drift = client losing time = speed up).
    if (const auto drift = engine_->drift_s_per_s()) {
      const double comp_ppm =
          clock_.frequency_compensation_ppm() + *drift * 1e6;
      clock_.set_frequency_compensation(now, comp_ppm);
      engine_->note_frequency_compensation(now, comp_ppm);
    }
  }
  sim_.after(engine_->next_wait(), [this] { attempt(); });
}

}  // namespace mntp::protocol
