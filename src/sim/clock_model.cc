#include "sim/clock_model.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "sim/ou.h"

namespace mntp::sim {

constexpr double kTempOmega = 2.0 * std::numbers::pi / kTempPeriod.to_seconds();

OscillatorModel::OscillatorModel(OscillatorParams params, core::Rng rng)
    : params_(params),
      rng_(std::move(rng)),
      wander_sd_ppm_(params.wander_ppm_per_sqrt_s *
                     std::sqrt(kWanderTau.to_seconds() / 2.0)),
      offset_s_(params.initial_offset_s) {}

void OscillatorModel::advance_to(core::TimePoint t) {
  if (t < last_) {
    throw std::logic_error("OscillatorModel: time moved backwards");
  }
  if (t == last_) return;
  const double h = (t - last_).to_seconds();
  const OuStep wander = ou_advance_integrated(
      wander_ppm_, h, wander_sd_ppm_, kWanderTau.to_seconds(), rng_);
  double ppm_s = params_.constant_skew_ppm * h + wander.integral;
  if (params_.temp_amplitude_ppm != 0.0) {  // integral of A sin(w t)
    const double temp_cos = std::cos(kTempOmega * t.to_seconds());
    ppm_s += params_.temp_amplitude_ppm / kTempOmega * (temp_cos_ - temp_cos);
    temp_cos_ = temp_cos;
  }
  offset_s_ += ppm_s * 1e-6;
  wander_ppm_ = wander.x;
  last_ = t;
}

double OscillatorModel::offset_at(core::TimePoint t) {
  advance_to(t);
  return offset_s_;
}

double DisciplinedClock::offset_at(core::TimePoint t) {
  integrate_comp(t);
  return osc_.offset_at(t) + corr_s_;
}

core::TimePoint DisciplinedClock::local_time(core::TimePoint t) {
  return t + core::Duration::from_seconds(offset_at(t));
}

void DisciplinedClock::step(core::Duration delta) {
  corr_s_ += delta.to_seconds();
}

void DisciplinedClock::set_frequency_compensation(core::TimePoint t, double ppm) {
  integrate_comp(t);
  comp_ppm_ = ppm;
}

void DisciplinedClock::integrate_comp(core::TimePoint t) {
  if (!comp_started_) {
    comp_since_ = t;
    comp_started_ = true;
    return;
  }
  if (t > comp_since_) {
    corr_s_ += comp_ppm_ * 1e-6 * (t - comp_since_).to_seconds();
    comp_since_ = t;
  }
}

}  // namespace mntp::sim
