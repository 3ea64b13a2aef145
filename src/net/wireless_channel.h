// Wireless last-hop channel model.
//
// This is the simulated counterpart of the paper's 802.11 testbed hop
// (laptop hotspot WAP + target node, §3.2). It must reproduce the two
// couplings MNTP exploits:
//
//   1. channel quality drives packet fate: low SNR means MAC retries,
//      queueing behind cross-traffic, heavy-tailed delay spikes, loss;
//   2. channel quality is *observable* through link-layer hints (RSSI,
//      noise floor), sampled with measurement noise.
//
// Structure: a Gilbert–Elliott good/bad process models interference and
// deep-fade episodes; Ornstein–Uhlenbeck processes model slow shadowing of
// RSSI and noise-floor wander; cross-traffic (set externally by
// CrossTrafficGenerator) raises utilization, which adds queueing delay,
// collision losses and a noise-floor rise. Transmit power is adjustable
// at runtime — the knob the paper's monitor node scripts. The per-frame
// physics (failure curve, MAC retry loop) is the stateless kernel in
// net/wireless_kernel.h and the OU advance is sim/ou.h, both shared with
// the fleet.
//
// All state advances lazily and deterministically from the owning
// simulation's clock; two packets offered at the same instant see the
// same channel state. The OU transition is exact at any gap, so the
// processes' law does not depend on how often the channel is queried,
// but their realization does (one draw per process per advance).
#pragma once

#include "core/rng.h"
#include "core/time.h"
#include "core/units.h"
#include "net/hints.h"
#include "net/link.h"
#include "obs/telemetry.h"

namespace mntp::net {

struct WirelessChannelParams {
  // --- Radio geometry ---
  core::Dbm default_tx_power{20.0};
  /// Mean path loss between WAP and client; RSSI ~= tx_power - path_loss.
  core::Decibels path_loss{83.0};
  /// Stationary stddev of the slow shadowing process on RSSI.
  double shadowing_sigma_db = 2.5;
  /// Relaxation time of the shadowing OU process.
  double shadowing_tau_s = 25.0;
  /// Per-reading fast-fading fluctuation on hint observations.
  double fast_fading_sigma_db = 1.2;
  core::Dbm base_noise{-95.0};
  double noise_sigma_db = 1.5;
  double noise_tau_s = 15.0;

  // --- Gilbert–Elliott interference/fade episodes ---
  core::Duration mean_good_duration = core::Duration::seconds(30);
  core::Duration mean_bad_duration = core::Duration::seconds(15);
  /// Extra attenuation of RSSI while in the bad state.
  core::Decibels bad_extra_fade{10.0};
  /// Noise-floor rise while in the bad state (adjacent-channel traffic).
  core::Decibels bad_noise_rise{16.0};

  // --- MAC / queueing behaviour ---
  core::Duration base_delay = core::Duration::milliseconds(2);
  /// Mean per-frame service time used by the queueing term.
  core::Duration service_time = core::Duration::milliseconds(6);
  /// Mean additional backoff per MAC retry.
  core::Duration retry_backoff = core::Duration::milliseconds(5);
  int max_retries = 6;
  /// SNR margin (dB) at which a single transmission attempt fails 50% of
  /// the time; lower SNR fails more.
  double snr50_db = 8.0;
  /// Logistic slope of the attempt-failure curve (dB per e-fold).
  double snr_slope_db = 2.2;
  /// Extra per-attempt collision probability contributed by saturating
  /// cross-traffic (scaled by utilization).
  double collision_at_full_load = 0.25;
  /// Noise-floor rise contributed by cross-traffic at full utilization.
  core::Decibels load_noise_rise{6.0};
  /// Cap on the queueing term so the M/M/1 approximation cannot explode.
  core::Duration max_queueing = core::Duration::milliseconds(400);
  /// Probability of a heavy-tailed delay spike per packet in the bad
  /// state (channel-access stalls observed as multi-hundred-ms offsets).
  double bad_spike_probability = 0.8;
  /// Pareto scale/shape of bad-state delay spikes.
  core::Duration spike_scale = core::Duration::milliseconds(80);
  double spike_shape = 1.5;
  core::Duration max_spike = core::Duration::milliseconds(1600);
  double bytes_per_second = 2.5e6;  // ~20 Mbit/s effective

  /// Direction asymmetry. The client's uplink contends against the AP's
  /// bulk downlink bursts and loses (small station vs aggregating AP), so
  /// queueing stalls and access spikes hit the uplink harder — which is
  /// what skews measured SNTP offsets positive in the paper's traces.
  /// Downlink terms are scaled by these factors.
  double downlink_queue_factor = 0.25;
  double downlink_spike_factor = 0.25;
};

class WirelessChannel {
 public:
  WirelessChannel(WirelessChannelParams params, core::Rng rng);

  /// Directional Link endpoints sharing this channel's state. Uplink is
  /// client -> AP (carries requests), downlink AP -> client (responses).
  [[nodiscard]] Link& uplink() { return uplink_endpoint_; }
  [[nodiscard]] Link& downlink() { return downlink_endpoint_; }

  /// Offer one frame in the given direction; fate and delay reflect the
  /// channel state at `now`.
  TransmitResult transmit_dir(core::TimePoint now, std::size_t bytes,
                              bool is_uplink);

  /// Sample the link-layer hints as a wireless adaptor would report them
  /// (slow state plus fast-fading measurement noise).
  [[nodiscard]] WirelessHints observe_hints(core::TimePoint now);

  /// Current transmit power (the monitor node's control knob).
  [[nodiscard]] core::Dbm tx_power() const { return tx_power_; }
  void set_tx_power(core::Dbm p) { tx_power_ = p; }

  /// Offered background load in [0,1], set by the cross-traffic process.
  [[nodiscard]] double utilization() const { return utilization_; }
  void set_utilization(double u);

  /// True while the Gilbert–Elliott process is in the bad state.
  [[nodiscard]] bool in_bad_state(core::TimePoint now);

  /// Noise-free RSSI/noise at `now` (the slow state without measurement
  /// noise): what transmit_dir's SNR and observe_hints start from.
  [[nodiscard]] WirelessHints true_hints(core::TimePoint now);

  [[nodiscard]] const WirelessChannelParams& params() const { return params_; }

 private:
  class Endpoint final : public Link {
   public:
    Endpoint(WirelessChannel& channel, bool is_uplink)
        : channel_(channel), is_uplink_(is_uplink) {}
    TransmitResult transmit(core::TimePoint now, std::size_t bytes) override {
      return channel_.transmit_dir(now, bytes, is_uplink_);
    }

   private:
    WirelessChannel& channel_;
    bool is_uplink_;
  };

  void advance_to(core::TimePoint t);

  Endpoint uplink_endpoint_{*this, true};
  Endpoint downlink_endpoint_{*this, false};
  WirelessChannelParams params_;
  core::Rng rng_;
  core::Dbm tx_power_;
  double utilization_ = 0.0;

  core::TimePoint last_;
  bool bad_ = false;
  core::TimePoint next_transition_;
  double shadow_db_ = 0.0;
  double noise_wander_db_ = 0.0;

  // Telemetry handles (per direction: [0]=up, [1]=down), bound at
  // construction to the then-current global obs context.
  obs::ShardedCounter* tx_counter_[2];
  obs::ShardedCounter* drop_counter_[2];
  obs::ShardedHdrHistogram* delay_ms_[2];
  obs::ShardedCounter* bad_transitions_;
  // Timeline probes: latest delivered delay per direction and the
  // offered-load knob (inert unless the recorder captures).
  double last_delay_ms_[2] = {0.0, 0.0};
  bool has_delay_[2] = {false, false};
  obs::ProbeHandle delay_probe_[2];
  obs::ProbeHandle util_probe_;
};

}  // namespace mntp::net
