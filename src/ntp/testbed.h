// Laboratory testbed assembly (paper Figure 3).
//
// One object wires together the whole experiment apparatus: the target
// node's clock, the wireless access hop (or a wired LAN hop for the
// control runs), the monitor node's interference machinery (cross-traffic
// generator + ping feedback + controller), the NTP server pool across the
// WAN, and optionally a reference NTP client disciplining the target's
// system clock ("with NTP clock correction"). Benches and examples build
// their scenarios on top of this.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/rng.h"
#include "net/cross_traffic.h"
#include "net/monitor_controller.h"
#include "net/pinger.h"
#include "net/wired_link.h"
#include "net/wireless_channel.h"
#include "ntp/ntp_client.h"
#include "ntp/pool.h"
#include "sim/clock_model.h"
#include "sim/simulation.h"

namespace mntp::ntp {

struct TestbedConfig {
  std::uint64_t seed = 42;
  /// Target node on the wireless hop (true) or a wired LAN hop (false).
  bool wireless = true;
  /// Run the reference NTP client to discipline the target's clock.
  bool ntp_correction = true;
  /// Run the monitor node's interference loop (cross-traffic + control).
  bool monitor_active = true;

  /// Target node oscillator. Defaults model the paper's laptop: ~-5.5 ppm
  /// constant skew (Fig 12 shows ≈ -20 ms/hour free-run drift), modest
  /// wander, a diurnal temperature term and tens-of-µs read noise.
  sim::OscillatorParams client_clock{
      .initial_offset_s = 0.0,
      .constant_skew_ppm = -5.5,
      .wander_ppm_per_sqrt_s = 0.015,
      .temp_amplitude_ppm = 0.8,
      .read_noise_s = 25e-6,
  };

  net::WirelessChannelParams channel;
  net::CrossTrafficParams traffic;
  net::MonitorControllerParams controller;
  /// Pool members are honest by default (the paper's lab experiments hit
  /// well-behaved pool.ntp.org servers); benches exercising MNTP's
  /// false-ticker rejection raise false_ticker_count explicitly.
  PoolParams pool{};
  NtpClientParams ntp;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);

  /// Start the environment processes (cross-traffic, pings, controller,
  /// NTP correction) per the configuration. Clients under test are
  /// attached and started separately by the caller.
  void start();

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] sim::DisciplinedClock& target_clock() { return *clock_; }
  [[nodiscard]] ServerPool& pool() { return *pool_; }
  [[nodiscard]] net::WirelessChannel& channel() { return *channel_; }
  [[nodiscard]] const TestbedConfig& config() const { return config_; }

  /// The target node's access hop in each direction: the wireless channel
  /// (shared state both ways) or the wired LAN segment.
  [[nodiscard]] net::Link* last_hop_up();
  [[nodiscard]] net::Link* last_hop_down();


  /// Oracle: the target system clock's true offset (local - true) in
  /// milliseconds at the current instant — the paper's "true time offset"
  /// baseline, with zero measurement error.
  [[nodiscard]] double true_clock_offset_ms();

  /// Fresh RNG stream derived from the testbed seed (for client policies
  /// that need randomness without perturbing environment streams).
  [[nodiscard]] core::Rng fork_rng() { return rng_.fork(); }

  [[nodiscard]] NtpClient* ntp_client() { return ntp_client_.get(); }
  [[nodiscard]] net::CrossTrafficGenerator& traffic() { return *traffic_; }
  [[nodiscard]] net::MonitorController& controller() { return *controller_; }
  [[nodiscard]] net::Pinger& pinger() { return *pinger_; }

 private:
  TestbedConfig config_;
  core::Rng rng_;
  sim::Simulation sim_;
  std::unique_ptr<sim::DisciplinedClock> clock_;
  std::unique_ptr<net::WirelessChannel> channel_;
  std::unique_ptr<net::WiredLink> lan_up_;
  std::unique_ptr<net::WiredLink> lan_down_;
  std::unique_ptr<ServerPool> pool_;
  std::unique_ptr<net::WiredLink> probe_wan_up_;
  std::unique_ptr<net::WiredLink> probe_wan_down_;
  std::unique_ptr<net::Pinger> pinger_;
  std::unique_ptr<net::CrossTrafficGenerator> traffic_;
  std::unique_ptr<net::MonitorController> controller_;
  std::unique_ptr<NtpClient> ntp_client_;
};

}  // namespace mntp::ntp
