#include "net/cellular.h"

#include <algorithm>
#include <cmath>

#include "obs/metric_names.h"
#include "obs/telemetry.h"

namespace mntp::net {

class CellularNetwork::DirectionalLink final : public Link {
 public:
  DirectionalLink(CellularNetwork& net, bool is_uplink, core::Rng rng)
      : net_(net), is_uplink_(is_uplink), rng_(std::move(rng)) {
    obs::MetricsRegistry& m = obs::Telemetry::global().metrics();
    const obs::Labels dir{{"dir", is_uplink ? "up" : "down"}};
    tx_counter_ = m.counter(obs::metric_names::kNetCellTx, dir);
    drop_counter_ = m.counter(obs::metric_names::kNetCellDrop, dir);
    delay_ms_ = m.histogram(obs::metric_names::kNetCellDelayMs, {}, dir);
    delay_probe_ = obs::Telemetry::global().timeseries().probe(
        obs::metric_names::kTsNetDelayMs,
        obs::Labels{{"transport", "cell"}, {"dir", is_uplink ? "up" : "down"}},
        [this](core::TimePoint) -> std::optional<double> {
          if (!has_delay_) return std::nullopt;
          return last_delay_ms_;
        });
  }

  TransmitResult transmit(core::TimePoint now, std::size_t /*bytes*/) override {
    net_.advance_to(now);
    const CellularParams& p = net_.params_;
    const bool congested = net_.congested_;

    tx_counter_->inc();
    const double p_loss =
        congested ? p.congested_loss_probability : p.loss_probability;
    if (rng_.bernoulli(p_loss)) {
      drop_counter_->inc();
      if (auto q = obs::ambient_query(); q.tracer) {
        q.tracer->stage(q.id, now, "cell", obs::Reason::kNone,
                        {{"dir", is_uplink_ ? "up" : "down"},
                         {"congested", congested},
                         {"dropped", true}});
      }
      return {.delivered = false, .delay = core::Duration::zero()};
    }

    core::Duration delay;
    if (is_uplink_) {
      double queue_median_s = p.uplink_queue_median.to_seconds();
      double sigma = p.uplink_queue_sigma;
      if (congested) {
        queue_median_s *= p.congested_uplink_factor;
        sigma = p.congested_uplink_sigma;
      }
      const double queue_s = rng_.lognormal(std::log(queue_median_s), sigma);
      delay = p.uplink_base + core::Duration::from_seconds(queue_s);
    } else {
      const double jitter_s =
          rng_.lognormal(std::log(p.downlink_jitter_median.to_seconds()),
                         p.downlink_jitter_sigma);
      delay = p.downlink_base + core::Duration::from_seconds(jitter_s);
      if (congested) {
        const double extra_s = rng_.lognormal(
            std::log(p.congested_downlink_extra.to_seconds()), 0.7);
        delay += core::Duration::from_seconds(extra_s);
      }
    }
    delay = std::min(delay, p.max_one_way);
    delay_ms_->record(delay.to_millis());
    last_delay_ms_ = delay.to_millis();
    has_delay_ = true;
    if (auto q = obs::ambient_query(); q.tracer) {
      q.tracer->stage(q.id, now, "cell", obs::Reason::kNone,
                      {{"dir", is_uplink_ ? "up" : "down"},
                       {"congested", congested},
                       {"delay_ms", delay.to_millis()}});
    }
    return {.delivered = true, .delay = delay};
  }

 private:
  CellularNetwork& net_;
  bool is_uplink_;
  core::Rng rng_;
  obs::ShardedCounter* tx_counter_;
  obs::ShardedCounter* drop_counter_;
  obs::ShardedHdrHistogram* delay_ms_;
  double last_delay_ms_ = 0.0;
  bool has_delay_ = false;
  obs::ProbeHandle delay_probe_;
};

CellularNetwork::CellularNetwork(CellularParams params, core::Rng rng)
    : params_(params), rng_(std::move(rng)) {
  congestion_episodes_ = obs::Telemetry::global().metrics().counter(
      obs::metric_names::kNetCellCongestionEpisodes);
  next_transition_ =
      core::TimePoint::epoch() +
      core::Duration::from_seconds(
          rng_.exponential(params_.mean_clear_duration.to_seconds()));
  uplink_ = std::make_unique<DirectionalLink>(*this, true, rng_.fork());
  downlink_ = std::make_unique<DirectionalLink>(*this, false, rng_.fork());
}

CellularNetwork::~CellularNetwork() = default;

Link& CellularNetwork::uplink() { return *uplink_; }
Link& CellularNetwork::downlink() { return *downlink_; }

void CellularNetwork::advance_to(core::TimePoint t) {
  while (next_transition_ <= t) {
    congested_ = !congested_;
    if (congested_) congestion_episodes_->inc();
    const double mean_s = (congested_ ? params_.mean_congested_duration
                                      : params_.mean_clear_duration)
                              .to_seconds();
    next_transition_ += core::Duration::from_seconds(rng_.exponential(mean_s));
  }
}

bool CellularNetwork::congested(core::TimePoint now) {
  advance_to(now);
  return congested_;
}

}  // namespace mntp::net
