#include "ntp/clock_filter.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metric_names.h"

namespace mntp::ntp {

ClockFilter::ClockFilter(ClockFilterParams params)
    : params_(params), stages_(params.stages == 0 ? 1 : params.stages) {
  if (params.stages == 0) {
    throw std::invalid_argument("ClockFilter: stages must be > 0");
  }
  obs::MetricsRegistry& m = obs::Telemetry::global().metrics();
  samples_counter_ = m.counter(obs::metric_names::kNtpFilterSamples);
  suppressed_counter_ = m.counter(obs::metric_names::kNtpFilterSuppressed);
}

void ClockFilter::reset() {
  stages_.clear();
  current_.reset();
  last_used_ = core::TimePoint::epoch();
  seen_ = 0;
  suppressed_ = 0;
  popcorn_armed_ = false;
}

std::optional<PeerEstimate> ClockFilter::update(core::Duration offset,
                                                core::Duration delay,
                                                core::TimePoint now) {
  ++seen_;
  samples_counter_->inc();

  // Popcorn spike suppressor: a *lone* sample far from the current
  // estimate is dropped. Suppressed samples never enter `stages_`, so a
  // genuine level shift would otherwise be suppressed forever — the
  // escape hatch admits the second consecutive out-of-gate sample (two
  // in a row is a level shift, not a popcorn spike; same policy as
  // ntpd's suppressor, see DESIGN.md §9).
  if (current_ && params_.popcorn_gate > 0.0) {
    const double jitter =
        std::max(current_->jitter_s, params_.popcorn_jitter_floor_s);
    const double dev_s = (offset - current_->offset).abs().to_seconds();
    if (dev_s > params_.popcorn_gate * jitter) {
      if (!popcorn_armed_) {
        popcorn_armed_ = true;
        ++suppressed_;
        suppressed_counter_->inc();
        if (auto q = obs::ambient_query(); q.tracer) {
          q.tracer->stage(q.id, now, "clock_filter",
                          obs::Reason::kPopcornSuppressed,
                          {{"deviation_ms", dev_s * 1e3},
                           {"gate_ms", params_.popcorn_gate * jitter * 1e3}});
        }
        return std::nullopt;
      }
      // Second consecutive out-of-gate sample: admit it below.
      popcorn_armed_ = false;
    } else {
      popcorn_armed_ = false;  // an in-gate sample disarms the hatch
    }
  }

  stages_.push(Stage{.offset = offset,
                     .delay = delay,
                     .dispersion = params_.base_dispersion,
                     .when = now});

  // Nominate the min-delay sample, with each stage's dispersion aged by
  // PHI * (now - sample time).
  std::size_t best = 0;
  core::Duration best_delay = core::Duration::max();
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i].delay < best_delay) {
      best_delay = stages_[i].delay;
      best = i;
    }
  }
  const Stage& nominated = stages_[best];

  PeerEstimate est;
  est.offset = nominated.offset;
  est.delay = nominated.delay;
  est.dispersion =
      nominated.dispersion +
      core::Duration::from_seconds(params_.phi * (now - nominated.when).to_seconds());

  // Peer jitter: RMS offset deviation of the other stages from the
  // nominated sample (RFC 5905 §10).
  double acc = 0.0;
  std::size_t terms = 0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (i == best) continue;
    const double d = (stages_[i].offset - nominated.offset).to_seconds();
    acc += d * d;
    ++terms;
  }
  est.jitter_s = terms > 0 ? std::sqrt(acc / static_cast<double>(terms))
                           : params_.base_dispersion.to_seconds();

  // Each nominated sample is handed to the discipline at most once.
  est.fresh = nominated.when > last_used_;
  if (est.fresh) last_used_ = nominated.when;

  current_ = est;
  return est;
}

}  // namespace mntp::ntp
