#include "net/monitor_controller.h"

#include <algorithm>

namespace mntp::net {

MonitorController::MonitorController(sim::Simulation& sim,
                                     WirelessChannel& channel,
                                     CrossTrafficGenerator& traffic,
                                     Pinger& pinger,
                                     MonitorControllerParams params)
    : sim_(sim),
      channel_(channel),
      traffic_(traffic),
      pinger_(pinger),
      params_(params),
      process_(sim, params.control_interval, [this] { control_tick(); }) {}

void MonitorController::start() { process_.start(params_.control_interval); }
void MonitorController::control_tick() {
  ++ticks_;
  const ProbeStats stats = pinger_.stats();
  const bool distressed = stats.loss_fraction() > params_.loss_high_watermark ||
                          stats.mean_rtt > params_.rtt_high_watermark;
  const bool stable = stats.probes > 0 &&
                      stats.loss_fraction() <= params_.loss_low_watermark &&
                      stats.mean_rtt <= params_.rtt_high_watermark;

  auto clamp_power = [&](core::Dbm p) {
    return core::Dbm{std::clamp(p.value(), params_.min_tx_power.value(),
                                params_.max_tx_power.value())};
  };

  if (distressed) {
    // Relieve: fewer downloads, more power.
    ++relieve_;
    traffic_.set_frequency_scale(traffic_.frequency_scale() /
                                 params_.frequency_step_factor);
    channel_.set_tx_power(clamp_power(channel_.tx_power() + params_.tx_power_step));
  } else if (stable) {
    // Stress: more downloads, less power.
    ++pressure_;
    traffic_.set_frequency_scale(traffic_.frequency_scale() *
                                 params_.frequency_step_factor);
    channel_.set_tx_power(clamp_power(channel_.tx_power() - params_.tx_power_step));
  }
  // In between the watermarks: hold.
}

}  // namespace mntp::net
