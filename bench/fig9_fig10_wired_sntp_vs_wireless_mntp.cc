// Figures 9 and 10: reported SNTP offsets on a WIRED network versus MNTP
// offsets on a WIRELESS network — with NTP clock correction (Fig 9) and
// without (Fig 10). The strongest form of the claim: MNTP over a lossy
// wireless hop is competitive with (even beats the tail of) plain SNTP
// over a clean wired path.
//
// Paper numbers: wired SNTP spikes to ~50 ms in both variants; MNTP on
// wireless stays around 20 ms.
#include <cstdio>

#include "common.h"

using namespace mntp;

namespace {

int run_variant(bool corrected, const char* figure, std::uint64_t seed) {
  std::printf("\n== %s: wired SNTP vs wireless MNTP (%s) ==\n", figure,
              corrected ? "with NTP correction" : "free-running clock");

  ntp::TestbedConfig wired;
  wired.seed = seed;
  wired.wireless = false;
  wired.ntp_correction = corrected;
  const bench::SntpRun sntp =
      bench::run_sntp_experiment(wired, core::Duration::hours(1));

  ntp::TestbedConfig wireless;
  wireless.seed = seed + 1;
  wireless.wireless = true;
  wireless.ntp_correction = corrected;
  const bench::MntpRun mntp = bench::run_mntp_experiment(
      wireless, protocol::head_to_head_params(), core::Duration::hours(1));

  bench::print_offset_summary("SNTP on wired", sntp.offsets_ms);
  bench::print_offset_summary("MNTP on wireless", mntp.accepted_ms);
  bench::print_offset_summary("MNTP minus trend", mntp.corrected_ms);
  bench::plot_offsets(
      "wired SNTP vs wireless MNTP (x: minutes, y: ms)",
      {{.label = "SNTP (wired)", .points = sntp.series, .marker = 's'},
       {.label = "MNTP (wireless)", .points = mntp.accepted, .marker = 'M'}});

  const double sntp_max = core::max_abs(sntp.offsets_ms);
  // With a free-running clock the MNTP offsets ride the drift trend; the
  // comparison metric is deviation from the trend, as in Fig 10.
  const double mntp_spread =
      corrected ? core::max_abs(mntp.accepted_ms)
                : core::max_abs(mntp.corrected_ms);

  bench::Checks checks;
  checks.expect(sntp_max > 10.0,
                "wired SNTP still shows multi-ms tail (paper: up to 50 ms)");
  checks.expect(mntp_spread < 40.0,
                "wireless MNTP stays within tens of ms (paper: ~20 ms)");
  checks.expect(mntp_spread < sntp_max * 1.5,
                "MNTP over a lossy wireless hop competitive with wired SNTP");
  checks.expect(core::rmse(corrected ? mntp.accepted_ms : mntp.corrected_ms) <
                    core::rmse(sntp.offsets_ms) * 1.5,
                "MNTP RMSE competitive with wired SNTP RMSE");
  return checks.finish(figure);
}

}  // namespace

int main(int argc, char** argv) {
  bench::reject_unknown_flags(argc, argv);
  int status = 0;
  status |= run_variant(/*corrected=*/true, "Figure 9", 90);
  status |= run_variant(/*corrected=*/false, "Figure 10", 92);
  return status;
}
