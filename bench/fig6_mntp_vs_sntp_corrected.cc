// Figure 6: reported SNTP vs MNTP offsets on a wireless network with NTP
// clock correction — the §5.1 head-to-head baseline: both clients poll at
// the 5 s cadence on the SAME testbed; MNTP runs without warm-up/regular
// split and without drift correction (gating + filtering only).
//
// Paper numbers: SNTP offsets up to 292 ms; MNTP maximum 23 ms — a
// 12-fold improvement; all outliers discarded by the MNTP filter.
#include <cstdio>

#include "common.h"

using namespace mntp;

int main(int argc, char** argv) {
  bench::BenchTelemetry telemetry("fig6_mntp_vs_sntp_corrected", argc, argv);
  bench::reject_unknown_flags(argc, argv);
  std::printf("== Figure 6: SNTP vs MNTP on wireless, NTP-corrected clock ==\n");
  ntp::TestbedConfig config;
  config.seed = 6;
  config.wireless = true;
  config.ntp_correction = true;

  const core::Duration span = core::Duration::hours(1);
  const bench::HeadToHead r =
      bench::run_head_to_head(config, protocol::head_to_head_params(), span);

  bench::print_offset_summary("SNTP reported offsets", r.sntp.offsets_ms);
  bench::print_offset_summary("MNTP reported offsets", r.mntp.accepted_ms);
  bench::print_offset_summary("MNTP rejected offsets", r.mntp.rejected_ms);
  std::printf("  MNTP deferrals: %zu, requests sent: %zu (SNTP polls: %zu)\n",
              r.mntp.deferrals, r.mntp.requests, r.sntp.polls);
  std::printf("  true clock offset at end: %+.2f ms\n",
              r.sntp.final_clock_offset_ms);

  bench::plot_offsets(
      "SNTP vs MNTP offsets (x: minutes, y: ms)",
      {{.label = "SNTP", .points = r.sntp.series, .marker = 's'},
       {.label = "MNTP accepted", .points = r.mntp.accepted, .marker = 'M'},
       {.label = "MNTP rejected", .points = r.mntp.rejected, .marker = 'x'}});

  const double sntp_max = core::max_abs(r.sntp.offsets_ms);
  const double mntp_max = core::max_abs(r.mntp.accepted_ms);
  const double improvement = sntp_max / std::max(mntp_max, 1e-9);

  bench::Checks checks;
  checks.expect(sntp_max > 150.0,
                "SNTP offsets reach into the hundreds of ms (paper: 292)");
  checks.expect(mntp_max < 40.0,
                "MNTP reported offsets stay within tens of ms (paper max: 23)");
  checks.expect(improvement > 6.0,
                "MNTP improves max offset by >6x (paper: ~12x)");
  checks.expect(!r.mntp.rejected_ms.empty() || r.mntp.deferrals > 50,
                "outliers handled by filter rejection and/or deferral");
  checks.expect(core::rmse(r.mntp.accepted_ms) <
                    core::rmse(r.sntp.offsets_ms) / 3.0,
                "MNTP RMSE at least 3x tighter than SNTP");
  for (double rej : r.mntp.rejected_ms) {
    if (std::abs(rej) > 100.0) {
      checks.expect(true, "large outliers visible among MNTP rejections");
      break;
    }
  }
  std::printf("  measured improvement factor (max|offset|): %.1fx\n",
              improvement);
  int status = checks.finish("Figure 6");
  if (!telemetry.finalize(core::TimePoint::epoch() + span)) status = 1;
  return status;
}
