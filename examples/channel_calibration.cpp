// Channel calibration walkthrough: prints the raw behaviour of every
// substrate so a user can sanity-check (or re-tune) the simulation
// against the paper's published numbers before running experiments.
//
//   1. wired NTP discipline convergence (the "NTP clock correction"
//      baseline must hold the clock within a few ms);
//   2. wireless channel dynamics: good/bad occupancy, hint statistics,
//      gate pass rate under the MNTP thresholds;
//   3. SNTP offset statistics over wired vs wireless paths;
//   4. 4G cellular SNTP offsets (Fig 5 substrate).
#include <cstdio>

#include "core/stats.h"
#include "mntp/params.h"
#include "net/cellular.h"
#include "ntp/sntp_client.h"
#include "ntp/testbed.h"

using namespace mntp;

namespace {

void wired_discipline() {
  ntp::TestbedConfig config;
  config.seed = 11;
  config.wireless = false;
  config.ntp_correction = true;
  config.monitor_active = false;
  ntp::Testbed bed(config);
  bed.start();

  core::RunningStats tail_offset;
  for (int minute = 1; minute <= 60; ++minute) {
    bed.sim().run_until(core::TimePoint::epoch() + core::Duration::minutes(minute));
    const double off = bed.true_clock_offset_ms();
    if (minute > 20) tail_offset.add(off);
    if (minute % 10 == 0) {
      std::printf("  t=%2dmin  true clock offset %+8.3f ms  (freq comp %+6.2f ppm, "
                  "steps=%zu, last combined %+7.3f ms, survivors=%zu)\n",
                  minute, off, bed.target_clock().frequency_compensation_ppm(),
                  bed.ntp_client()->steps(),
                  bed.ntp_client()->last_combined_offset().to_millis(),
                  bed.ntp_client()->last_survivor_count());
    }
  }
  std::printf("  steady state (t>20min): mean %+0.3f ms, sd %.3f ms, "
              "max |.| %.3f ms\n",
              tail_offset.mean(), tail_offset.stddev(),
              std::max(std::abs(tail_offset.min()), std::abs(tail_offset.max())));
}

void channel_dynamics() {
  ntp::TestbedConfig config;
  config.seed = 12;
  config.wireless = true;
  config.ntp_correction = false;
  ntp::Testbed bed(config);
  bed.start();

  const protocol::HintThresholds thresholds;
  std::size_t samples = 0, bad = 0, favorable = 0;
  core::RunningStats rssi, noise, snr;
  for (int i = 0; i < 3600; ++i) {
    bed.sim().run_until(core::TimePoint::epoch() + core::Duration::seconds(i + 1));
    const auto hints = bed.channel().observe_hints(bed.sim().now());
    ++samples;
    if (bed.channel().in_bad_state(bed.sim().now())) ++bad;
    if (thresholds.favorable(hints)) ++favorable;
    rssi.add(hints.rssi.value());
    noise.add(hints.noise.value());
    snr.add(hints.snr_margin().value());
  }
  std::printf("  bad-state occupancy: %.1f%%   gate pass rate: %.1f%%\n",
              100.0 * static_cast<double>(bad) / static_cast<double>(samples),
              100.0 * static_cast<double>(favorable) / static_cast<double>(samples));
  std::printf("  RSSI  mean %6.1f dBm sd %4.1f   noise mean %6.1f dBm sd %4.1f   "
              "SNR mean %5.1f dB\n",
              rssi.mean(), rssi.stddev(), noise.mean(), noise.stddev(), snr.mean());
  std::printf("  monitor: %zu control ticks (%zu relieve / %zu pressure), "
              "%zu downloads\n",
              bed.controller().ticks(), bed.controller().relieve_count(),
              bed.controller().pressure_count(), bed.traffic().downloads_completed());
}

void sntp_offsets(bool wireless, bool corrected) {
  ntp::TestbedConfig config;
  config.seed = 13;
  config.wireless = wireless;
  config.ntp_correction = corrected;
  ntp::Testbed bed(config);

  ntp::SntpClientPolicy policy;
  policy.poll_interval = core::Duration::seconds(5);
  ntp::SntpClient sntp(bed.sim(), bed.target_clock(), bed.pool(),
                       bed.last_hop_up(), bed.last_hop_down(), policy);
  bed.start();
  sntp.start();
  bed.sim().run_until(core::TimePoint::epoch() + core::Duration::hours(1));

  const auto offsets = sntp.offsets_ms();
  const core::Summary s = core::summarize(offsets);
  std::printf("  %-8s %-12s mean %+8.2f ms  sd %7.2f  max|.| %8.2f  "
              "(n=%zu, failures=%zu)\n",
              wireless ? "wireless" : "wired",
              corrected ? "corrected" : "free-run", s.mean, s.stddev,
              core::max_abs(offsets), offsets.size(), sntp.failures());
  std::printf("           true clock offset at end: %+.3f ms\n",
              bed.true_clock_offset_ms());
}

void cellular_offsets() {
  core::Rng rng(14);
  sim::Simulation sim;
  sim::DisciplinedClock clock(sim::OscillatorParams{}, rng.fork());
  net::CellularNetwork cellular(net::CellularParams{}, rng.fork());
  ntp::ServerPool pool(ntp::PoolParams{}, rng.fork());
  ntp::SntpClientPolicy policy;
  policy.poll_interval = core::Duration::seconds(5);
  ntp::SntpClient sntp(sim, clock, pool, &cellular.uplink(),
                       &cellular.downlink(), policy);
  sntp.start();
  sim.run_until(core::TimePoint::epoch() + core::Duration::hours(3));
  const auto offsets = sntp.offsets_ms();
  const core::Summary s = core::summarize(offsets);
  std::printf("  4G SNTP offsets: mean %+8.2f ms  sd %7.2f  max %8.2f  (n=%zu)\n",
              s.mean, s.stddev, s.max, offsets.size());
}

}  // namespace

int main() {
  std::printf("[1] wired NTP discipline convergence\n");
  wired_discipline();
  std::printf("\n[2] wireless channel dynamics (1 h)\n");
  channel_dynamics();
  std::printf("\n[3] SNTP offset statistics (1 h, 5 s polls)\n");
  sntp_offsets(/*wireless=*/false, /*corrected=*/true);
  sntp_offsets(/*wireless=*/false, /*corrected=*/false);
  sntp_offsets(/*wireless=*/true, /*corrected=*/true);
  sntp_offsets(/*wireless=*/true, /*corrected=*/false);
  std::printf("\n[4] cellular (4G) SNTP offsets (3 h)\n");
  cellular_offsets();
  return 0;
}
