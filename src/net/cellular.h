// Cellular (4G) access network model.
//
// §3.3 repeats the wireless experiment on a Samsung Galaxy S4 over a live
// 4G network and observes SNTP offsets with mean 192 ms, sd 55 ms and a
// maximum of ~840 ms against a GPS-corrected clock. An SNTP offset of
// theta = ((T2-T1)+(T3-T4))/2 on a *synchronized* clock equals half the
// uplink/downlink delay asymmetry — so the published moments pin down the
// asymmetry, not the absolute delay. LTE uplinks are scheduled
// (SR/BSR grant cycles) and frequently bufferbloated, producing exactly
// this structure: a large mean uplink excess with occasional multi-second
// episodes.
//
// `CellularNetwork` owns shared radio/congestion state and exposes an
// uplink Link and a downlink Link that both consult it, so congestion
// episodes affect both directions coherently (uplink much harder).
#pragma once

#include <memory>

#include "core/rng.h"
#include "core/time.h"
#include "net/link.h"
#include "obs/telemetry.h"

namespace mntp::net {

struct CellularParams {
  // Downlink: fast and comparatively tight.
  core::Duration downlink_base = core::Duration::milliseconds(28);
  core::Duration downlink_jitter_median = core::Duration::milliseconds(6);
  double downlink_jitter_sigma = 0.6;

  // Uplink: grant-scheduling floor plus a heavy queueing component.
  core::Duration uplink_base = core::Duration::milliseconds(52);
  /// Median of the standing uplink queueing excess.
  core::Duration uplink_queue_median = core::Duration::milliseconds(320);
  double uplink_queue_sigma = 0.22;

  // Congestion episodes (cell load spikes): both directions degrade,
  // uplink disproportionately.
  core::Duration mean_clear_duration = core::Duration::minutes(9);
  core::Duration mean_congested_duration = core::Duration::seconds(35);
  /// Multiplier on the uplink queue excess during congestion.
  double congested_uplink_factor = 2.2;
  /// Lognormal sigma of the uplink queue excess during congestion (the
  /// bufferbloat tail widens under load).
  double congested_uplink_sigma = 0.35;
  /// Additive downlink delay during congestion (median of lognormal).
  core::Duration congested_downlink_extra = core::Duration::milliseconds(25);
  double loss_probability = 0.01;
  double congested_loss_probability = 0.06;

  core::Duration max_one_way = core::Duration::seconds(3);
};

class CellularNetwork {
 public:
  CellularNetwork(CellularParams params, core::Rng rng);
  ~CellularNetwork();
  CellularNetwork(const CellularNetwork&) = delete;
  CellularNetwork& operator=(const CellularNetwork&) = delete;

  /// Device -> network direction (carries NTP requests).
  [[nodiscard]] Link& uplink();
  /// Network -> device direction (carries NTP responses).
  [[nodiscard]] Link& downlink();

  /// True while the cell is in a congestion episode at `now`.
  [[nodiscard]] bool congested(core::TimePoint now);

  [[nodiscard]] const CellularParams& params() const { return params_; }

 private:
  class DirectionalLink;
  void advance_to(core::TimePoint t);

  CellularParams params_;
  core::Rng rng_;
  bool congested_ = false;
  core::TimePoint next_transition_;
  obs::ShardedCounter* congestion_episodes_ = nullptr;
  std::unique_ptr<DirectionalLink> uplink_;
  std::unique_ptr<DirectionalLink> downlink_;
};

}  // namespace mntp::net
