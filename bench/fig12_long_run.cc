// Figure 12: the 4-hour long experiment — SNTP vs MNTP on a wireless
// network with a free-running clock, full MNTP (trend line fitted and
// re-estimated; the "clock corrected drift" series is offset minus
// trend).
//
// Paper numbers: SNTP offsets as high as 392 ms; MNTP's corrected drift
// values always below 20 ms; the drift trend line is clearly visible and
// large offsets are rejected by the filter.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common.h"

using namespace mntp;

namespace {

/// The shape metrics one replicate adds to the report the checks read,
/// plus the reported offset distributions (merged exactly across
/// replicates).
sim::ReplicateResult replicate_result(const bench::HeadToHead& r) {
  sim::ReplicateResult out;
  out.metrics = {
      {"sntp_max_abs_ms", core::max_abs(r.sntp.offsets_ms)},
      {"corrected_max_ms", core::max_abs(r.mntp.corrected_ms)},
      {"rejections", static_cast<double>(r.mntp.rejected_ms.size())},
      {"deferrals", static_cast<double>(r.mntp.deferrals)},
      {"accepted", static_cast<double>(r.mntp.accepted.size())},
      {"last_accepted_ms",
       r.mntp.accepted.empty() ? 0.0 : r.mntp.accepted.back().second},
      {"has_drift", r.mntp.has_drift ? 1.0 : 0.0},
      {"drift_ppm", r.mntp.has_drift ? r.mntp.drift_ppm : 0.0},
      {"final_clock_offset_ms", r.mntp.final_clock_offset_ms},
  };
  obs::HdrHistogram sntp_offsets, mntp_resid;
  for (double v : r.sntp.offsets_ms) sntp_offsets.record(v);
  for (double v : r.mntp.corrected_ms) mntp_resid.record(v);
  out.distributions = {
      {"sntp_offset_ms", std::move(sntp_offsets)},
      {"mntp_resid_ms", std::move(mntp_resid)},
  };
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchTelemetry telemetry("fig12_long_run", argc, argv);
  const bench::ReplicateCli cli = bench::parse_replicate_cli(argc, argv);
  bench::reject_unknown_flags(argc, argv);
  std::printf("== Figure 12: 4-hour run, free-running clock ==\n");
  ntp::TestbedConfig config;
  config.seed = 12;
  config.wireless = true;
  config.ntp_correction = false;

  // Replicate 0 runs the base seed: its full run is the figure. Every
  // replicate adds its shape metrics to the report the checks read.
  bench::HeadToHead r;
  const auto scenario = [&](std::uint64_t seed, std::size_t replicate) {
    ntp::TestbedConfig replicate_config = config;
    replicate_config.seed = seed;
    bench::HeadToHead run = bench::run_head_to_head(
        replicate_config, protocol::head_to_head_params(),
        core::Duration::hours(4));
    sim::ReplicateResult out = replicate_result(run);
    if (replicate == 0) r = std::move(run);
    return out;
  };
  const sim::ReplicateReport report =
      sim::ReplicationRunner({cli.replicates, cli.threads})
          .run(config.seed, sim::ReplicationRunner::RichScenario(scenario));

  bench::print_offset_summary("SNTP reported offsets", r.sntp.offsets_ms);
  bench::print_offset_summary("MNTP reported offsets", r.mntp.accepted_ms);
  bench::print_offset_summary("MNTP corrected drift", r.mntp.corrected_ms);
  std::printf("  MNTP rejections: %zu, deferrals: %zu\n",
              r.mntp.rejected_ms.size(), r.mntp.deferrals);
  if (r.mntp.has_drift) {
    std::printf("  drift estimate %+.2f ppm (true constant skew %.2f ppm)\n",
                r.mntp.drift_ppm, config.client_clock.constant_skew_ppm);
  }
  std::printf("  true clock offset after 4 h: %+.2f ms\n",
              r.mntp.final_clock_offset_ms);

  bench::plot_offsets(
      "4-hour run (x: minutes, y: ms)",
      {{.label = "SNTP", .points = r.sntp.series, .marker = 's'},
       {.label = "MNTP accepted (trend)", .points = r.mntp.accepted, .marker = 'M'},
       {.label = "MNTP corrected drift", .points = r.mntp.corrected, .marker = 'c'}});

  bench::print_replicate_report(report);

  // Each check reads the median across replicates: the value itself at
  // K=1.
  bench::Checks checks;
  checks.expect(report.median("sntp_max_abs_ms") > 200.0,
                "SNTP offsets reach hundreds of ms over 4 h (paper: 392)");
  checks.expect(report.median("corrected_max_ms") < 30.0,
                "MNTP corrected drift always below tens of ms (paper: <20)");
  checks.expect(report.median("rejections") > 0.0,
                "filter rejects large offsets over the long run");
  // The trend tracks the actual free-run drift: the accepted offsets at
  // the end of the run sit near the true accumulated clock error
  // (measured offset ~ -clock offset).
  if (report.median("accepted") > 0.0) {
    checks.expect_near(report.median("last_accepted_ms"),
                       -report.median("final_clock_offset_ms"), 25.0,
                       "accepted offsets track the true drift trend");
  }
  if (report.median("has_drift") > 0.0) {
    // Measured offset = (server - client): a clock losing time (negative
    // skew) produces a *rising* measured-offset trend, hence the sign flip.
    checks.expect_near(report.median("drift_ppm"),
                       -config.client_clock.constant_skew_ppm, 3.0,
                       "drift estimate matches the oscillator skew");
  }
  int status = checks.finish("Figure 12");
  if (!telemetry.finalize(core::TimePoint::epoch() + core::Duration::hours(4))) status = 1;
  return status;
}
