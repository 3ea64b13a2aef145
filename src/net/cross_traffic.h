// Cross-traffic generator.
//
// The paper's monitor node intermittently downloads a large file through
// the WAP "at random intervals from a fixed download destination" to
// occupy the channel (§3.2). This process reproduces that workload:
// exponential idle gaps, lognormally-distributed download durations, and
// a per-download utilization level pushed into the wireless channel.
// The monitor controller scales the download frequency up and down.
#pragma once

#include <functional>

#include "core/rng.h"
#include "core/time.h"
#include "net/wireless_channel.h"
#include "sim/simulation.h"

namespace mntp::net {

struct CrossTrafficParams {
  /// Mean idle gap between downloads at frequency scale 1.0.
  core::Duration mean_idle = core::Duration::seconds(25);
  /// Median download duration.
  core::Duration median_download = core::Duration::seconds(12);
  /// Lognormal sigma of the download duration.
  double download_sigma = 0.6;
  /// Channel utilization while a download is active (sampled per
  /// download, uniform in [min, max]).
  double min_utilization = 0.55;
  double max_utilization = 0.92;
  /// Residual utilization between downloads (beacons, background apps).
  double idle_utilization = 0.04;
};

class CrossTrafficGenerator {
 public:
  CrossTrafficGenerator(sim::Simulation& sim, WirelessChannel& channel,
                        CrossTrafficParams params, core::Rng rng);

  /// Begin the idle/download cycle.
  void start();

  /// Scale the download *frequency* (the monitor node's second knob):
  /// 2.0 halves the mean idle gap, 0.5 doubles it. Clamped to
  /// [0.05, 20].
  void set_frequency_scale(double scale);
  [[nodiscard]] double frequency_scale() const { return freq_scale_; }

  [[nodiscard]] bool download_active() const { return downloading_; }
  [[nodiscard]] std::size_t downloads_completed() const { return completed_; }

 private:
  void begin_idle();
  void begin_download();

  sim::Simulation& sim_;
  WirelessChannel& channel_;
  CrossTrafficParams params_;
  core::Rng rng_;
  double freq_scale_ = 1.0;
  bool running_ = false;
  bool downloading_ = false;
  std::size_t completed_ = 0;
  obs::ShardedCounter* downloads_counter_ = nullptr;
  /// Per-download utilization levels. A histogram, not a last-written
  /// gauge: replicate workers share one registry, and the last writer
  /// across threads would depend on scheduling.
  obs::ShardedHdrHistogram* utilization_ = nullptr;
};

}  // namespace mntp::net
