// Figure 8: reported SNTP vs MNTP offsets on a wireless network WITHOUT
// NTP clock correction — the client's clock free-runs and drifts, so
// accepted offsets ride the skew trend line.
//
// Paper numbers: SNTP offsets as high as 450 ms; MNTP maximum 24 ms from
// the trend, on average within 4.5 ms of the reference — 17x better.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common.h"

using namespace mntp;

namespace {

/// The shape metrics one replicate adds to the report the checks read,
/// plus the full reported-offset distributions (merged exactly across
/// replicates).
sim::ReplicateResult replicate_result(const bench::HeadToHead& r) {
  sim::ReplicateResult out;
  out.metrics = {
      {"sntp_max_abs_ms", core::max_abs(r.sntp.offsets_ms)},
      {"mntp_max_abs_ms", core::max_abs(r.mntp.accepted_ms)},
      {"resid_max_ms", core::max_abs(r.mntp.corrected_ms)},
      {"resid_mean_ms", core::mean_abs(r.mntp.corrected_ms)},
      {"has_drift", r.mntp.has_drift ? 1.0 : 0.0},
      {"drift_ppm", r.mntp.has_drift ? r.mntp.drift_ppm : 0.0},
  };
  obs::HdrHistogram sntp_offsets, mntp_accepted, mntp_resid;
  for (double v : r.sntp.offsets_ms) sntp_offsets.record(v);
  for (double v : r.mntp.accepted_ms) mntp_accepted.record(v);
  for (double v : r.mntp.corrected_ms) mntp_resid.record(v);
  out.distributions = {
      {"sntp_offset_ms", std::move(sntp_offsets)},
      {"mntp_accepted_ms", std::move(mntp_accepted)},
      {"mntp_resid_ms", std::move(mntp_resid)},
  };
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchTelemetry telemetry("fig8_mntp_vs_sntp_freerun", argc, argv);
  const bench::ReplicateCli cli = bench::parse_replicate_cli(argc, argv);
  bench::reject_unknown_flags(argc, argv);
  std::printf("== Figure 8: SNTP vs MNTP on wireless, free-running clock ==\n");
  ntp::TestbedConfig config;
  config.seed = 8;
  config.wireless = true;
  config.ntp_correction = false;
  // The clock is synchronized just before the run (as in the paper: NTP
  // corrects it, then is switched off), so offsets start near zero and
  // ride the skew trend over the hour.

  // Replicate 0 runs the base seed: its full run is the figure. Every
  // replicate adds its shape metrics to the report the checks read.
  bench::HeadToHead r;
  const auto scenario = [&](std::uint64_t seed, std::size_t replicate) {
    ntp::TestbedConfig replicate_config = config;
    replicate_config.seed = seed;
    bench::HeadToHead run = bench::run_head_to_head(
        replicate_config, protocol::head_to_head_params(),
        core::Duration::hours(1));
    sim::ReplicateResult out = replicate_result(run);
    if (replicate == 0) r = std::move(run);
    return out;
  };
  const sim::ReplicateReport report =
      sim::ReplicationRunner({cli.replicates, cli.threads})
          .run(config.seed, sim::ReplicationRunner::RichScenario(scenario));

  bench::print_offset_summary("SNTP reported offsets", r.sntp.offsets_ms);
  bench::print_offset_summary("MNTP reported offsets", r.mntp.accepted_ms);
  bench::print_offset_summary("MNTP offsets minus trend", r.mntp.corrected_ms);
  if (r.mntp.has_drift) {
    std::printf("  MNTP drift estimate: %+.2f ppm (true oscillator skew %.2f ppm)\n",
                r.mntp.drift_ppm, config.client_clock.constant_skew_ppm);
  }

  bench::plot_offsets(
      "SNTP vs MNTP offsets, free-running clock (x: minutes, y: ms)",
      {{.label = "SNTP", .points = r.sntp.series, .marker = 's'},
       {.label = "MNTP accepted", .points = r.mntp.accepted, .marker = 'M'},
       {.label = "MNTP rejected", .points = r.mntp.rejected, .marker = 'x'}});

  bench::print_replicate_report(report);

  // "Within x ms of the reference": MNTP's accepted offsets vs the true
  // clock offset they estimate. The trend-corrected residuals measure the
  // deviation from the skew line (paper: max 24 ms, mean 4.5 ms). Each
  // check reads the median across replicates: the value itself at K=1.
  const double sntp_max = report.median("sntp_max_abs_ms");
  const double mntp_max = report.median("mntp_max_abs_ms");

  bench::Checks checks;
  checks.expect(sntp_max > 250.0,
                "SNTP offsets reach hundreds of ms (paper: 450)");
  checks.expect(mntp_max < 45.0,
                "MNTP reported offsets stay within tens of ms (paper max: 24)");
  checks.expect(report.median("resid_max_ms") < 40.0,
                "MNTP stays within tens of ms of the trend");
  checks.expect(report.median("resid_mean_ms") < 10.0,
                "MNTP mean deviation small (paper: 4.5 ms)");
  checks.expect(sntp_max / std::max(mntp_max, 1e-9) > 6.0,
                "improvement factor approaching the paper's 17x");
  if (report.median("has_drift") > 0.0) {
    // Measured offset = (server - client): a clock losing time (negative
    // skew) produces a *rising* measured-offset trend, hence the sign flip.
    checks.expect_near(report.median("drift_ppm"),
                       -config.client_clock.constant_skew_ppm, 3.0,
                       "drift estimate recovers the oscillator skew");
  }
  int status = checks.finish("Figure 8");
  if (!telemetry.finalize(core::TimePoint::epoch() + core::Duration::hours(1))) status = 1;
  return status;
}
