#include "net/pinger.h"

#include <algorithm>

namespace mntp::net {

Pinger::Pinger(sim::Simulation& sim, LinkPath forward, LinkPath reverse,
               PingerParams params)
    : sim_(sim),
      forward_(std::move(forward)),
      reverse_(std::move(reverse)),
      params_(params),
      window_(params.window == 0 ? 1 : params.window),
      process_(sim, params.interval, [this] { probe(); }) {}

void Pinger::start() { process_.start(); }
void Pinger::probe() {
  const core::TimePoint sent = sim_.now();
  ++sent_;
  auto record_loss = [this, sent] {
    window_.push(ProbeResult{.sent_at = sent, .lost = true});
  };
  // The reply is generated immediately at the peer; its fate depends on
  // the channel state at that (later) instant — send_datagram evaluates
  // each hop at the packet's arrival there.
  send_datagram(
      sim_, forward_, params_.probe_bytes,
      [this, sent, record_loss](core::TimePoint /*at_peer*/) {
        send_datagram(
            sim_, reverse_, params_.probe_bytes,
            [this, sent](core::TimePoint back) {
              window_.push(ProbeResult{
                  .sent_at = sent, .lost = false, .rtt = back - sent});
            },
            record_loss);
      },
      record_loss);
}

ProbeStats Pinger::stats() const {
  ProbeStats s;
  core::Duration rtt_sum = core::Duration::zero();
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    const ProbeResult& r = window_[i];
    ++s.probes;
    if (r.lost) {
      ++s.losses;
    } else {
      ++delivered;
      rtt_sum += r.rtt;
      s.max_rtt = std::max(s.max_rtt, r.rtt);
    }
  }
  if (delivered > 0) {
    s.mean_rtt = rtt_sum / static_cast<std::int64_t>(delivered);
  }
  return s;
}

}  // namespace mntp::net
