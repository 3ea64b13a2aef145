#include "ntp/testbed.h"

namespace mntp::ntp {

Testbed::Testbed(TestbedConfig config) : config_(config), rng_(config.seed) {
  clock_ = std::make_unique<sim::DisciplinedClock>(config_.client_clock,
                                                   rng_.fork());
  channel_ = std::make_unique<net::WirelessChannel>(config_.channel, rng_.fork());
  lan_up_ = std::make_unique<net::WiredLink>(net::WiredLinkParams::lan(),
                                             rng_.fork());
  lan_down_ = std::make_unique<net::WiredLink>(net::WiredLinkParams::lan(),
                                               rng_.fork());
  pool_ = std::make_unique<ServerPool>(config_.pool, rng_.fork());

  // Ping probe destination: a nearby wired host beyond the WAP, so probe
  // RTT/loss reflects the wireless hop (§3.2: probes to a
  // "user-configured probe destination").
  probe_wan_up_ = std::make_unique<net::WiredLink>(
      net::WiredLinkParams::wan(core::Duration::milliseconds(8)), rng_.fork());
  probe_wan_down_ = std::make_unique<net::WiredLink>(
      net::WiredLinkParams::wan(core::Duration::milliseconds(8)), rng_.fork());

  net::LinkPath ping_forward;
  net::LinkPath ping_reverse;
  if (config_.wireless) {
    ping_forward.append(channel_->uplink());
    ping_forward.append(*probe_wan_up_);
    ping_reverse.append(*probe_wan_down_);
    ping_reverse.append(channel_->downlink());
  } else {
    ping_forward.append(*lan_up_);
    ping_forward.append(*probe_wan_up_);
    ping_reverse.append(*probe_wan_down_);
    ping_reverse.append(*lan_down_);
  }
  pinger_ = std::make_unique<net::Pinger>(sim_, ping_forward, ping_reverse,
                                          net::PingerParams{});
  traffic_ = std::make_unique<net::CrossTrafficGenerator>(
      sim_, *channel_, config_.traffic, rng_.fork());
  controller_ = std::make_unique<net::MonitorController>(
      sim_, *channel_, *traffic_, *pinger_, config_.controller);

  if (config_.ntp_correction) {
    ntp_client_ = std::make_unique<NtpClient>(sim_, *clock_, *pool_,
                                              last_hop_up(), last_hop_down(),
                                              config_.ntp);
  }
}

void Testbed::start() {
  if (config_.monitor_active) {
    traffic_->start();
    pinger_->start();
    controller_->start();
  }
  if (ntp_client_) ntp_client_->start();
}

net::Link* Testbed::last_hop_up() {
  return config_.wireless ? &channel_->uplink()
                          : static_cast<net::Link*>(lan_up_.get());
}

net::Link* Testbed::last_hop_down() {
  return config_.wireless ? &channel_->downlink()
                          : static_cast<net::Link*>(lan_down_.get());
}

double Testbed::true_clock_offset_ms() {
  return clock_->offset_at(sim_.now()) * 1e3;
}

}  // namespace mntp::ntp
