#include "device/gps.h"

#include <algorithm>

namespace mntp::device {

GpsTimeSource::GpsTimeSource(sim::Simulation& sim, sim::DisciplinedClock& clock,
                             GpsParams params, core::Rng rng)
    : sim_(sim),
      clock_(clock),
      params_(params),
      rng_(std::move(rng)),
      process_(sim, params.fix_interval, [this] { attempt_fix(); }) {
  next_transition_ =
      core::TimePoint::epoch() +
      core::Duration::from_seconds(
          rng_.exponential(params_.mean_open_sky.to_seconds()));
}

void GpsTimeSource::start() { process_.start(); }
void GpsTimeSource::advance_to(core::TimePoint t) {
  while (next_transition_ <= t) {
    open_sky_ = !open_sky_;
    const double mean_s =
        (open_sky_ ? params_.mean_open_sky : params_.mean_denied).to_seconds();
    next_transition_ += core::Duration::from_seconds(rng_.exponential(mean_s));
  }
  last_ = t;
}

bool GpsTimeSource::available(core::TimePoint now) {
  advance_to(now);
  return open_sky_;
}

void GpsTimeSource::attempt_fix() {
  const core::TimePoint now = sim_.now();
  ++attempts_;
  energy_mj_ += params_.energy_per_attempt_mj;
  if (!available(now)) return;  // burned the energy, no fix

  const core::Duration ttf = std::min(
      core::Duration::from_seconds(
          rng_.exponential(params_.mean_time_to_fix.to_seconds())),
      params_.fix_timeout);
  if (ttf >= params_.fix_timeout) return;  // gave up

  sim_.after(ttf, [this] {
    const core::TimePoint t = sim_.now();
    if (!available(t)) return;  // sky closed mid-acquisition
    ++fixes_;
    const double current = clock_.offset_at(t);
    const double residual =
        rng_.uniform(-params_.fix_error_bound.to_seconds(),
                     params_.fix_error_bound.to_seconds());
    clock_.step(core::Duration::from_seconds(-current + residual));
  });
}

}  // namespace mntp::device
