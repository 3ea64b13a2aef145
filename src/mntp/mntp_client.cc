#include "mntp/mntp_client.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "obs/metric_names.h"
#include "obs/query_trace.h"

namespace mntp::protocol {

MntpClient::MntpClient(sim::Simulation& sim, sim::DisciplinedClock& clock,
                       ntp::ServerPool& pool, net::WirelessChannel& channel,
                       MntpParams params, core::Rng rng,
                       ntp::QueryOptions query_options)
    : sim_(sim),
      clock_(clock),
      pool_(pool),
      channel_(channel),
      params_(params),
      rng_(std::move(rng)),
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
  running_ = true;
  last_emission_ = sim_.now();
  engine_ = std::make_unique<MntpEngine>(params_, sim_.now());
  deferral_probe_ = sim_.telemetry().timeseries().counter_probe(
      obs::metric_names::kTsMntpDeferrals, {}, engine_counters_.deferrals());
  pending_ = sim_.after(core::Duration::zero(), [this] { attempt(); });
}

void MntpClient::stop() {
  running_ = false;
  pending_.cancel();
}

void MntpClient::attempt() {
  if (!running_) return;
  // Acquire offset only when channel is stable (Algorithm 1 steps 5/17).
  const net::WirelessHints hints = channel_.observe_hints(sim_.now());
  const bool favorable = engine_->gate(hints);
  // Perpetually-unstable-channel fallback: after max_deferral without an
  // emission, proceed regardless and let the filter judge the sample.
  const auto& params = engine_->params();
  const bool forced =
      !favorable && params.max_deferral > core::Duration::zero() &&
      sim_.now() - last_emission_ > params.max_deferral;
  hint_log_.push_back(HintRecord{
      .hints = hints, .favorable = favorable, .emitted = favorable || forced});
  obs::QueryTracer& qt = sim_.telemetry().query_tracer();
  if (!favorable && !forced) {
    // Deferral: the opportunity is a complete (one-decision) query of
    // its own — mint, record the gate readings, let the engine attach
    // its deferral bookkeeping, and close with the defer verdict.
    if (qt.enabled()) {
      const obs::QueryId id = qt.begin(sim_.now(), "round");
      qt.stage(id, sim_.now(), "gate", obs::Reason::kChannelDefer,
               {{"rssi_dbm", hints.rssi.value()},
                {"noise_dbm", hints.noise.value()},
                {"snr_margin_db", hints.snr_margin().value()}});
      obs::ActiveQueryScope scope(qt, id);
      engine_->note_deferral(sim_.now());
      engine_counters_.count_deferral();
      qt.finish(id, sim_.now(), obs::Reason::kChannelDefer,
                {{"phase", std::string(to_string(engine_->phase()))}});
    } else {
      engine_->note_deferral(sim_.now());
      engine_counters_.count_deferral();
    }
    pending_ = sim_.after(params.hint_recheck_interval, [this] { attempt(); });
    return;
  }
  if (qt.enabled()) {
    round_trace_ = qt.begin(sim_.now(), "round");
    qt.stage(round_trace_, sim_.now(), "gate",
             forced ? obs::Reason::kForcedEmission : obs::Reason::kOk,
             {{"rssi_dbm", hints.rssi.value()},
              {"noise_dbm", hints.noise.value()},
              {"snr_margin_db", hints.snr_margin().value()}});
  }
  if (forced) {
    ++forced_emissions_;
    forced_counter_->inc();
  }
  last_emission_ = sim_.now();
  run_round();
}

void MntpClient::run_round() {
  // Pick distinct pool members: getOffsetUsingMultipleSources() in warm-up
  // (the paper queries 0/1/3.pool.ntp.org in parallel), a single source in
  // the regular phase.
  const std::size_t want =
      std::min(engine_->sources_to_query(), pool_.size());
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
          } else {
            ++query_failures_;
          }
          if (--*outstanding == 0) finish_round(std::move(*offsets));
        });
  }
}

void MntpClient::finish_round(std::vector<double> offsets_s) {
  if (!running_) return;
  const core::TimePoint now = sim_.now();
  obs::QueryTracer& qt = sim_.telemetry().query_tracer();
  const obs::QueryId round_id = round_trace_;
  round_trace_ = 0;
  // The decision phase for the verdict: on_round may advance the phase
  // (warm-up completion) before returning, so read it afterwards via
  // rr.warmup_completed.
  MntpEngine::RoundResult rr;
  {
    // Install the round so the engine's vote/filter stages attach to it
    // (the engine then leaves the verdict to us — see on_round).
    obs::ActiveQueryScope scope(qt, round_id);
    rr = engine_->on_round(now, offsets_s);
  }
  engine_counters_.count_round(rr, !offsets_s.empty());

  if (rr.accepted && params_.apply_corrections_to_clock &&
      engine_->phase() == Phase::kRegular) {
    // correctSystemClock(offset): step by the measured offset.
    clock_.step(core::Duration::from_seconds(rr.offset_s));
    engine_->note_clock_step(rr.offset_s);
    clock_steps_counter_->inc();
    qt.stage(round_id, now, "clock_step", obs::Reason::kNone,
             {{"step_ms", rr.offset_s * 1e3}});
  }
  if (round_id != 0) {
    const Phase decision_phase =
        rr.warmup_completed ? Phase::kWarmup : engine_->phase();
    qt.finish(round_id, now,
              offsets_s.empty() ? obs::Reason::kNoSamples
                                : to_reason(rr.outcome),
              {{"phase", std::string(to_string(decision_phase))},
               {"offset_ms", rr.offset_s * 1e3},
               {"residual_ms", rr.corrected_s * 1e3},
               {"sources", static_cast<std::int64_t>(offsets_s.size())}});
  }
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
  pending_ = sim_.after(engine_->next_wait(), [this] { attempt(); });
}

}  // namespace mntp::protocol
