// Monitor-node controller: the paper's scriptable interference tool.
//
// §3.2: "if the latencies of ping probes reported by TN increases, as
// observed from the number of packet losses in ping probes, the file
// download frequency is decreased and the transmission power value is
// increased thereby making the channel less lossy and dynamic. Otherwise,
// the frequency of downloads and transmission power are increased and
// decreased respectively. Once the channel stabilizes, as denoted by no
// packet losses in ping traffic, our tool automatically responds by a
// decrease in transmission power and increase in download frequency,
// making the channel conditions variable and lossy at random intervals."
//
// The controller closes that loop over the simulated channel: it keeps
// the channel oscillating between stressed and recovering — the "wide
// range of wireless network conditions" the experiments need.
#pragma once

#include "core/time.h"
#include "core/units.h"
#include "net/cross_traffic.h"
#include "net/pinger.h"
#include "net/wireless_channel.h"
#include "sim/simulation.h"

namespace mntp::net {

struct MonitorControllerParams {
  core::Duration control_interval = core::Duration::seconds(10);
  /// Loss fraction above which the channel counts as distressed.
  double loss_high_watermark = 0.15;
  /// Loss fraction below which the channel counts as stable.
  double loss_low_watermark = 0.0;
  /// RTT above which the channel counts as distressed even without loss.
  core::Duration rtt_high_watermark = core::Duration::milliseconds(150);
  core::Decibels tx_power_step{2.0};
  core::Dbm min_tx_power{8.0};
  core::Dbm max_tx_power{27.0};
  double frequency_step_factor = 1.3;
};

class MonitorController {
 public:
  MonitorController(sim::Simulation& sim, WirelessChannel& channel,
                    CrossTrafficGenerator& traffic, Pinger& pinger,
                    MonitorControllerParams params);

  void start();

  /// Number of control decisions taken (diagnostics).
  [[nodiscard]] std::size_t ticks() const { return ticks_; }
  /// Number of "relieve pressure" vs "add pressure" decisions.
  [[nodiscard]] std::size_t relieve_count() const { return relieve_; }
  [[nodiscard]] std::size_t pressure_count() const { return pressure_; }

 private:
  void control_tick();

  sim::Simulation& sim_;
  WirelessChannel& channel_;
  CrossTrafficGenerator& traffic_;
  Pinger& pinger_;
  MonitorControllerParams params_;
  sim::PeriodicProcess process_;
  std::size_t ticks_ = 0;
  std::size_t relieve_ = 0;
  std::size_t pressure_ = 0;
};

}  // namespace mntp::net
