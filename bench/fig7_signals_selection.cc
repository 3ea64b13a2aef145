// Figure 7: "Signals and selection plot" — the measured wireless hints
// (RSSI, noise, SNR margin) over the Figure 6 run, annotated with which
// acquisition opportunities were deferred, which offsets were accepted
// and which were rejected by the MNTP filter.
//
// Paper claims reproduced: requests are deferred when RSSI/noise/SNR
// fail the thresholds; the large reported offsets are rejected by the
// trend filter; accepted offsets hug the drift trend line.
#include <cstdio>

#include "common.h"

using namespace mntp;

int main(int argc, char** argv) {
  bench::BenchTelemetry telemetry("fig7_signals_selection", argc, argv);
  bench::reject_unknown_flags(argc, argv);
  std::printf("== Figure 7: wireless hints and MNTP selection ==\n");
  ntp::TestbedConfig config;
  config.seed = 6;  // same run as Figure 6
  config.wireless = true;
  config.ntp_correction = true;

  const bench::MntpRun run = bench::run_mntp_experiment(
      config, protocol::head_to_head_params(), core::Duration::hours(1));

  // Hint series, split by gate outcome.
  core::Series rssi_ok{.label = "RSSI at emitted requests (dBm)", .points = {}, .marker = '+'};
  core::Series rssi_deferred{.label = "RSSI at deferrals (dBm)", .points = {}, .marker = '.'};
  core::Series snr_ok{.label = "SNR margin, emitted (dB)", .points = {}, .marker = '+'};
  core::Series snr_deferred{.label = "SNR margin, deferred (dB)", .points = {}, .marker = '.'};
  core::RunningStats snr_when_ok, snr_when_deferred;
  for (const auto& h : run.hints) {
    const double t_min = h.hints.when.to_seconds() / 60.0;
    if (h.favorable) {
      rssi_ok.points.emplace_back(t_min, h.hints.rssi.value());
      snr_ok.points.emplace_back(t_min, h.hints.snr_margin().value());
      snr_when_ok.add(h.hints.snr_margin().value());
    } else {
      rssi_deferred.points.emplace_back(t_min, h.hints.rssi.value());
      snr_deferred.points.emplace_back(t_min, h.hints.snr_margin().value());
      snr_when_deferred.add(h.hints.snr_margin().value());
    }
  }

  bench::plot_offsets("RSSI over the run (x: minutes, y: dBm)",
                      {rssi_ok, rssi_deferred});
  bench::plot_offsets("SNR margin over the run (x: minutes, y: dB)",
                      {snr_ok, snr_deferred});
  bench::plot_offsets(
      "MNTP selection (x: minutes, y: ms)",
      {{.label = "accepted", .points = run.accepted, .marker = 'M'},
       {.label = "rejected", .points = run.rejected, .marker = 'x'}});

  std::printf("  opportunities: %zu emitted, %zu deferred\n",
              rssi_ok.points.size(), run.deferrals);
  std::printf("  SNR margin mean: %.1f dB when emitting vs %.1f dB when deferring\n",
              snr_when_ok.mean(), snr_when_deferred.mean());
  std::printf("  offsets: %zu accepted, %zu rejected by the filter\n",
              run.accepted_ms.size(), run.rejected_ms.size());

  bench::Checks checks;
  checks.expect(run.deferrals > 50, "substantial deferral activity");
  checks.expect(!rssi_ok.points.empty(), "requests do get emitted");
  checks.expect(snr_when_ok.mean() >= 20.0,
                "emitted requests satisfy the 20 dB SNR-margin threshold");
  checks.expect(snr_when_ok.mean() - snr_when_deferred.mean() > 10.0,
                "deferral instants have materially worse SNR");
  checks.expect(core::max_abs(run.accepted_ms) <
                    (run.rejected_ms.empty()
                         ? 1e9
                         : core::max_abs(run.rejected_ms)),
                "rejected offsets are the large ones");
  int status = checks.finish("Figure 7");
  if (!telemetry.finalize(core::TimePoint::epoch() + core::Duration::hours(1))) status = 1;
  return status;
}
