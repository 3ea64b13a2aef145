#include "net/wireless_channel.h"

#include <algorithm>
#include <stdexcept>

#include "net/wireless_kernel.h"
#include "obs/metric_names.h"

namespace mntp::net {

WirelessChannel::WirelessChannel(WirelessChannelParams params, core::Rng rng)
    : params_(params),
      rng_(std::move(rng)),
      tx_power_(params.default_tx_power) {
  if (params_.max_retries < 0) {
    throw std::invalid_argument("WirelessChannel: max_retries must be >= 0");
  }
  if (params_.snr_slope_db <= 0.0) {
    throw std::invalid_argument("WirelessChannel: snr_slope_db must be > 0");
  }
  obs::Telemetry& telemetry = obs::Telemetry::global();
  obs::MetricsRegistry& m = telemetry.metrics();
  for (int d = 0; d < 2; ++d) {
    const obs::Labels dir{{"dir", d == 0 ? "up" : "down"}};
    tx_counter_[d] = m.counter(obs::metric_names::kNetWifiTx, dir);
    drop_counter_[d] = m.counter(obs::metric_names::kNetWifiDrop, dir);
    delay_ms_[d] = m.histogram(obs::metric_names::kNetWifiDelayMs, {}, dir);
  }
  bad_transitions_ = m.counter(obs::metric_names::kNetWifiBadStateTransitions);
  obs::TimeSeriesRecorder& ts = telemetry.timeseries();
  for (int d = 0; d < 2; ++d) {
    const obs::Labels labels{{"transport", "wifi"},
                             {"dir", d == 0 ? "up" : "down"}};
    delay_probe_[d] =
        ts.probe(obs::metric_names::kTsNetDelayMs, labels,
                 [this, d](core::TimePoint) -> std::optional<double> {
                   if (!has_delay_[d]) return std::nullopt;
                   return last_delay_ms_[d];
                 });
  }
  util_probe_ =
      ts.probe(obs::metric_names::kTsNetUtilization,
               obs::Labels{{"transport", "wifi"}},
               [this](core::TimePoint) -> std::optional<double> {
                 return utilization_;
               });
  // First good->bad transition.
  next_transition_ = core::TimePoint::epoch() +
      core::Duration::from_seconds(
          rng_.exponential(params_.mean_good_duration.to_seconds()));
}

void WirelessChannel::set_utilization(double u) {
  utilization_ = std::clamp(u, 0.0, 1.0);
}

void WirelessChannel::advance_to(core::TimePoint t) {
  if (t < last_) {
    throw std::logic_error("WirelessChannel: time moved backwards");
  }
  // Gilbert–Elliott transitions: exponential sojourn times.
  while (next_transition_ <= t) {
    bad_ = !bad_;
    if (bad_) bad_transitions_->inc();
    const double mean_s = (bad_ ? params_.mean_bad_duration
                                : params_.mean_good_duration)
                              .to_seconds();
    next_transition_ += core::Duration::from_seconds(rng_.exponential(mean_s));
  }
  // Exact OU transitions across the gap; a zero gap draws nothing.
  const double gap_s = (t - last_).to_seconds();
  shadow_db_ = wireless_kernel::ou_advance(shadow_db_, gap_s,
                                           params_.shadowing_sigma_db,
                                           params_.shadowing_tau_s, rng_);
  noise_wander_db_ = wireless_kernel::ou_advance(
      noise_wander_db_, gap_s, params_.noise_sigma_db, params_.noise_tau_s,
      rng_);
  last_ = t;
}

bool WirelessChannel::in_bad_state(core::TimePoint now) {
  advance_to(now);
  return bad_;
}

WirelessHints WirelessChannel::true_hints(core::TimePoint now) {
  advance_to(now);
  core::Dbm rssi = tx_power_ - params_.path_loss + core::Decibels{shadow_db_};
  core::Dbm noise = params_.base_noise + core::Decibels{noise_wander_db_} +
                    core::Decibels{params_.load_noise_rise.value() * utilization_};
  if (bad_) {
    rssi = rssi - params_.bad_extra_fade;
    noise = noise + params_.bad_noise_rise;
  }
  return WirelessHints{.when = now, .rssi = rssi, .noise = noise};
}

WirelessHints WirelessChannel::observe_hints(core::TimePoint now) {
  WirelessHints h = true_hints(now);
  h.rssi = h.rssi + core::Decibels{rng_.normal(0.0, params_.fast_fading_sigma_db)};
  h.noise = h.noise + core::Decibels{rng_.normal(0.0, params_.fast_fading_sigma_db * 0.5)};
  return h;
}

TransmitResult WirelessChannel::transmit_dir(core::TimePoint now,
                                             std::size_t bytes,
                                             bool is_uplink) {
  const core::Decibels snr = true_hints(now).snr_margin();
  const std::size_t dir = is_uplink ? 0 : 1;
  tx_counter_[dir]->inc();
  const double queue_factor = is_uplink ? 1.0 : params_.downlink_queue_factor;
  const double spike_factor = is_uplink ? 1.0 : params_.downlink_spike_factor;
  // MAC retry loop over the SNR + collision failure curve; a drop draws
  // no backoff for the retry that never happens.
  const double p_fail = wireless_kernel::attempt_failure_probability(
      wireless_kernel::snr_failure_probability(
          snr.value(), params_.snr50_db, params_.snr_slope_db),
      params_.collision_at_full_load * utilization_);
  const wireless_kernel::MacResult mac = wireless_kernel::mac_transmit(
      p_fail, params_.max_retries, params_.retry_backoff.to_seconds(), rng_);
  if (!mac.delivered) {
    drop_counter_[dir]->inc();
    if (auto q = obs::ambient_query(); q.tracer) {
      q.tracer->stage(q.id, now, "airtime", obs::Reason::kNone,
                      {{"dir", is_uplink ? "up" : "down"},
                       {"attempts", static_cast<std::int64_t>(params_.max_retries) + 1},
                       {"exhausted", true},
                       {"snr_db", snr.value()},
                       {"p_fail", p_fail}});
    }
    return {.delivered = false, .delay = core::Duration::zero()};
  }

  // Queueing behind cross-traffic: M/M/1-flavoured mean wait
  // rho/(1-rho) * service, sampled exponentially and capped.
  core::Duration queueing = core::Duration::zero();
  if (utilization_ > 0.0) {
    const double rho = std::min(utilization_, 0.97);
    const double mean_wait_s =
        rho / (1.0 - rho) * params_.service_time.to_seconds() * queue_factor;
    queueing = core::Duration::from_seconds(rng_.exponential(mean_wait_s));
    queueing = std::min(queueing, params_.max_queueing);
  }

  // Bad-state heavy-tail stalls: rare but large, the source of the
  // multi-hundred-millisecond SNTP offsets the paper observes. They hit
  // the uplink harder (see downlink_spike_factor).
  core::Duration spike = core::Duration::zero();
  if (bad_ &&
      rng_.bernoulli(params_.bad_spike_probability * spike_factor)) {
    spike = core::Duration::from_seconds(
        rng_.pareto(params_.spike_scale.to_seconds(), params_.spike_shape));
    spike = std::min(spike, params_.max_spike);
  }

  const core::Duration backoff = core::Duration::from_seconds(mac.backoff);
  core::Duration serialization = core::Duration::zero();
  if (params_.bytes_per_second > 0.0) {
    serialization = core::Duration::from_seconds(
        static_cast<double>(bytes) * (1.0 + static_cast<double>(mac.retries)) /
        params_.bytes_per_second);
  }

  const core::Duration delay =
      params_.base_delay + backoff + queueing + spike + serialization;
  delay_ms_[dir]->record(delay.to_millis());
  last_delay_ms_[dir] = delay.to_millis();
  has_delay_[dir] = true;
  if (auto q = obs::ambient_query(); q.tracer) {
    // Per-query airtime breakdown: where this packet's delay came from.
    q.tracer->stage(q.id, now, "airtime", obs::Reason::kNone,
                    {{"dir", is_uplink ? "up" : "down"},
                     {"retries", static_cast<std::int64_t>(mac.retries)},
                     {"backoff_ms", backoff.to_millis()},
                     {"queueing_ms", queueing.to_millis()},
                     {"spike_ms", spike.to_millis()},
                     {"snr_db", snr.value()},
                     {"utilization", utilization_}});
  }
  return {.delivered = true, .delay = delay};
}

}  // namespace mntp::net
