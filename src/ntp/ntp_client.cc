#include "ntp/ntp_client.h"

#include <algorithm>
#include <cstdint>

#include "obs/query_trace.h"

namespace mntp::ntp {

NtpClient::NtpClient(sim::Simulation& sim, sim::DisciplinedClock& clock,
                     ServerPool& pool, net::Link* last_hop_up,
                     net::Link* last_hop_down, NtpClientParams params)
    : sim_(sim),
      clock_(clock),
      pool_(pool),
      last_hop_up_(last_hop_up),
      last_hop_down_(last_hop_down),
      params_(std::move(params)),
      engine_(sim, clock),
      process_(sim, params_.poll_interval, [this] { poll_round(); }) {
  filters_.reserve(params_.peer_indices.size());
  for (std::size_t i = 0; i < params_.peer_indices.size(); ++i) {
    filters_.emplace_back(params_.filter);
  }
}

void NtpClient::start() { process_.start(); }
void NtpClient::poll_round() {
  // Query every peer this round; when the last reply (or failure) lands,
  // run the mitigation pipeline and discipline the clock.
  auto outstanding = std::make_shared<std::size_t>(params_.peer_indices.size());
  // One round trace spanning all peer exchanges and the mitigation
  // verdict; installed as ambient so query() parents the per-peer
  // exchange traces on it.
  obs::QueryTracer& tracer = sim_.telemetry().query_tracer();
  const obs::QueryId round_id =
      tracer.enabled() ? tracer.begin(sim_.now(), "round") : 0;
  obs::ActiveQueryScope scope(tracer, round_id);
  for (std::size_t peer = 0; peer < params_.peer_indices.size(); ++peer) {
    const ServerEndpoint ep = pool_.endpoint(params_.peer_indices[peer],
                                             last_hop_up_, last_hop_down_);
    engine_.query(
        ep, params_.query_options,
        [this, peer, outstanding, round_id](core::Result<SntpSample> result) {
          obs::QueryTracer& qt = sim_.telemetry().query_tracer();
          const bool traced = obs::recorded(round_id);
          if (result.ok()) {
            const SntpSample& s = result.value();
            (void)filters_[peer].update(s.offset, s.delay, s.completed_at);
          }
          if (--*outstanding == 0) {
            // Mitigation over the current peer estimates.
            std::vector<PeerEstimate> estimates;
            for (std::size_t i = 0; i < filters_.size(); ++i) {
              if (const auto est = filters_[i].current()) {
                estimates.push_back(*est);
              }
            }
            if (estimates.empty()) {
              if (traced) {
                qt.finish(round_id, sim_.now(), obs::Reason::kNoSamples,
                          {{"peers",
                            static_cast<std::int64_t>(filters_.size())}});
              }
              return;
            }
            auto chimers = select_truechimers(estimates);
            if (chimers.empty()) {
              // Intersection found no majority clique: every estimate is
              // a potential false ticker; the round moves nothing.
              if (traced) {
                qt.stage(round_id, sim_.now(), "selection",
                         obs::Reason::kNoSurvivors,
                         {{"estimates",
                           static_cast<std::int64_t>(estimates.size())},
                          {"truechimers", static_cast<std::int64_t>(0)}});
                qt.finish(round_id, sim_.now(), obs::Reason::kNoSurvivors);
              }
              return;
            }
            const std::size_t truechimers = chimers.size();
            chimers = cluster_survivors(estimates, std::move(chimers),
                                        params_.cluster);
            last_survivors_ = chimers.size();
            if (traced) {
              qt.stage(
                  round_id, sim_.now(), "selection", obs::Reason::kOk,
                  {{"estimates", static_cast<std::int64_t>(estimates.size())},
                   {"truechimers", static_cast<std::int64_t>(truechimers)},
                   {"survivors", static_cast<std::int64_t>(chimers.size())}});
            }
            // Discipline only on rounds where a surviving peer
            // contributed a not-yet-consumed nomination; a round
            // of stale re-nominations must not move the clock
            // again (RFC 5905 uses each filter output once).
            std::vector<std::size_t> fresh_survivors;
            for (std::size_t idx : chimers) {
              if (estimates[idx].fresh) fresh_survivors.push_back(idx);
            }
            if (fresh_survivors.empty()) {
              if (traced) {
                qt.finish(round_id, sim_.now(), obs::Reason::kOk,
                          {{"disciplined", false}});
              }
              return;
            }
            const core::Duration offset =
                combine_offsets(estimates, fresh_survivors);
            discipline(offset);
            if (traced) {
              qt.finish(round_id, sim_.now(), obs::Reason::kOk,
                        {{"disciplined", true},
                         {"offset_ms", offset.to_millis()}});
            }
          }
        });
  }
}

void NtpClient::discipline(core::Duration offset) {
  ++updates_;
  last_offset_ = offset;
  if (offset.abs() >= params_.step_threshold) {
    // Stepout guard: a large offset only steps the clock after it has
    // persisted with the same sign for `stepout_rounds` rounds. Anything
    // shorter is treated as a measurement spike and ignored entirely
    // (stepping or slewing on it would corrupt a healthy clock).
    const int sign = offset > core::Duration::zero() ? 1 : -1;
    if (sign == streak_sign_) {
      ++above_threshold_streak_;
    } else {
      streak_sign_ = sign;
      above_threshold_streak_ = 1;
    }
    if (above_threshold_streak_ >= params_.stepout_rounds) {
      clock_.step(offset);
      ++steps_;
      above_threshold_streak_ = 0;
      streak_sign_ = 0;
    }
    // A step invalidates the phase history; keep the frequency integral.
    return;
  }
  above_threshold_streak_ = 0;
  streak_sign_ = 0;
  // PLL-flavoured slew: immediate partial phase correction plus an
  // integral term trimming the oscillator frequency estimate.
  clock_.step(offset.scaled(params_.phase_gain));
  const double update_s = offset.to_seconds();
  freq_integral_ppm_ += params_.frequency_gain * update_s /
                        params_.poll_interval.to_seconds() * 1e6;
  freq_integral_ppm_ = std::clamp(freq_integral_ppm_, -params_.max_frequency_ppm,
                                  params_.max_frequency_ppm);
  clock_.set_frequency_compensation(sim_.now(), freq_integral_ppm_);
}

}  // namespace mntp::ntp
