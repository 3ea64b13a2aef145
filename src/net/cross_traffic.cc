#include "net/cross_traffic.h"

#include <algorithm>
#include <cmath>

#include "obs/metric_names.h"

namespace mntp::net {

CrossTrafficGenerator::CrossTrafficGenerator(sim::Simulation& sim,
                                             WirelessChannel& channel,
                                             CrossTrafficParams params,
                                             core::Rng rng)
    : sim_(sim), channel_(channel), params_(params), rng_(std::move(rng)) {
  obs::MetricsRegistry& m = sim_.telemetry().metrics();
  downloads_counter_ = m.counter(obs::metric_names::kNetXtrafficDownloads);
  utilization_ = m.histogram(obs::metric_names::kNetXtrafficUtilization);
}

void CrossTrafficGenerator::start() {
  if (running_) return;
  running_ = true;
  channel_.set_utilization(params_.idle_utilization);
  begin_idle();
}

void CrossTrafficGenerator::stop() {
  running_ = false;
  pending_.cancel();
  downloading_ = false;
  channel_.set_utilization(params_.idle_utilization);
}

void CrossTrafficGenerator::set_frequency_scale(double scale) {
  freq_scale_ = std::clamp(scale, 0.05, 20.0);
}

void CrossTrafficGenerator::begin_idle() {
  downloading_ = false;
  channel_.set_utilization(params_.idle_utilization);
  const double gap_s =
      rng_.exponential(params_.mean_idle.to_seconds() / freq_scale_);
  pending_ = sim_.after(core::Duration::from_seconds(gap_s), [this] {
    if (running_) begin_download();
  });
}

void CrossTrafficGenerator::begin_download() {
  downloading_ = true;
  const double utilization =
      rng_.uniform(params_.min_utilization, params_.max_utilization);
  channel_.set_utilization(utilization);
  utilization_->record(utilization);
  const double dur_s = rng_.lognormal(
      std::log(params_.median_download.to_seconds()), params_.download_sigma);
  pending_ = sim_.after(core::Duration::from_seconds(dur_s), [this] {
    ++completed_;
    downloads_counter_->inc();
    if (running_) begin_idle();
  });
}

}  // namespace mntp::net
