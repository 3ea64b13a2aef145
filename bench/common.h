// Shared experiment harness for the bench binaries.
//
// Every bench regenerates one table or figure from the paper: it builds
// the corresponding workload on the Testbed (or cellular/log substrate),
// runs it, prints the same rows/series the paper reports (as aligned
// tables and ASCII plots), and finishes with explicit PASS/FAIL checks of
// the paper's qualitative claims. Absolute numbers come from a simulator,
// so checks assert the *shape*: who wins, by roughly what factor, where
// the spikes are.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/stats.h"
#include "core/table.h"
#include "core/time.h"
#include "mntp/mntp_client.h"
#include "mntp/params.h"
#include "ntp/sntp_client.h"
#include "ntp/testbed.h"
#include "obs/report.h"
#include "obs/streaming.h"
#include "obs/telemetry.h"
#include "sim/replicate.h"

namespace mntp::bench {

/// (minutes since start, offset in ms) series of one client run.
using Series = std::vector<std::pair<double, double>>;

struct SntpRun {
  Series series;
  std::vector<double> offsets_ms;
  std::size_t polls = 0;
  std::size_t failures = 0;
  /// True clock offset at the end of the run (oracle), ms.
  double final_clock_offset_ms = 0.0;
};

/// Run a plain SNTP client on a fresh testbed for `span`, polling every
/// `poll` (the paper's lab cadence is 5 s).
SntpRun run_sntp_experiment(const ntp::TestbedConfig& config,
                            core::Duration span,
                            core::Duration poll = core::Duration::seconds(5));

struct MntpRun {
  Series accepted;
  Series rejected;
  /// Residuals against the drift trend ("clock corrected" series, Fig 12).
  Series corrected;
  std::vector<double> accepted_ms;
  std::vector<double> rejected_ms;
  std::vector<double> corrected_ms;
  std::size_t deferrals = 0;
  std::size_t requests = 0;
  double drift_ppm = 0.0;
  bool has_drift = false;
  double final_clock_offset_ms = 0.0;
  /// Hint log copied out for the signals plot (Fig 7).
  std::vector<protocol::HintRecord> hints;
};

/// Run an MNTP client on a fresh testbed for `span`.
MntpRun run_mntp_experiment(const ntp::TestbedConfig& config,
                            const protocol::MntpParams& params,
                            core::Duration span);

/// Run SNTP and MNTP *side by side on the same testbed* (same channel
/// realization, same servers) — the paper's head-to-head methodology.
struct HeadToHead {
  SntpRun sntp;
  MntpRun mntp;
};
HeadToHead run_head_to_head(const ntp::TestbedConfig& config,
                            const protocol::MntpParams& params,
                            core::Duration span,
                            core::Duration sntp_poll = core::Duration::seconds(5));

/// Print a labeled offset summary row.
void print_offset_summary(const std::string& label,
                          const std::vector<double>& offsets_ms);

/// Plot one or two offset series (x in minutes, y in ms).
void plot_offsets(const std::string& title,
                  const std::vector<core::Series>& series);

/// PASS/FAIL check accumulation. Checks never abort; the bench prints a
/// verdict block at the end and returns the number of failed checks as
/// its exit code (0 = all shape checks hold).
class Checks {
 public:
  void expect(bool condition, const std::string& description);
  /// expect with a formatted "measured vs target" tail.
  void expect_near(double value, double target, double tolerance,
                   const std::string& description);
  /// Print the verdict block; returns the failure count.
  int finish(const std::string& experiment_name) const;

 private:
  struct Entry {
    bool pass;
    std::string text;
  };
  std::vector<Entry> entries_;
};

/// Convert an engine record list into bench series (minutes, ms).
void split_engine_records(const protocol::MntpEngine& engine, Series* accepted,
                          Series* rejected, Series* corrected);

/// Parse `--threads N` (or `--threads=N`) from argv; `def` when absent
/// (malformed exits 2, as parse_size_flag). 0 means "one worker per
/// hardware thread".
std::size_t parse_threads(int argc, char** argv, std::size_t def = 1);

/// `--replicates K --threads N` for the multi-seed benches. replicates
/// defaults to 1 (the original single-seed experiment, bit for bit);
/// threads defaults to 1 (exact serial path).
struct ReplicateCli {
  std::size_t replicates = 1;
  std::size_t threads = 1;
};
ReplicateCli parse_replicate_cli(int argc, char** argv);

/// Print a replicate report as an aggregate table (one row per metric:
/// median / mean / stddev / min / max across replicates).
void print_replicate_report(const sim::ReplicateReport& report);

/// Print the report's cross-replicate merged distributions (one row per
/// distribution: count / p50 / p90 / p99 / min / max). No-op when the
/// report carries none.
void print_replicate_distributions(const sim::ReplicateReport& report);

/// Parse `--<flag> value` / `--<flag>=value` from argv (last occurrence
/// wins); empty string when absent. `flag` includes the leading dashes.
/// A present flag without a value (last argument, empty `=`, or followed
/// by another `--` flag) prints an error naming the flag and exits 2.
std::string parse_flag(int argc, char** argv, const char* flag);

/// parse_flag for non-negative integers; `def` when absent. A value that
/// is not all digits (`1e6`, `-3`, `12x`) prints an error and exits 2.
std::size_t parse_size_flag(int argc, char** argv, const char* flag,
                            std::size_t def);

/// parse_flag for decimal numbers; `def` when absent. A value strtod
/// cannot consume whole prints an error and exits 2.
double parse_double_flag(int argc, char** argv, const char* flag,
                         double def);

/// True when the bare flag is present (`--flag`; `--flag=anything` also
/// counts). For switches that carry no value.
bool parse_bool_flag(int argc, char** argv, const char* flag);

/// Call once in main() after every flag has been parsed. The parse_*
/// helpers (and BenchTelemetry, which uses them) record each flag they
/// look up; any other argument — a misspelled flag, a stray word — is
/// an error naming it, exit 2, instead of a run on the defaults.
void reject_unknown_flags(int argc, char** argv);

/// Per-run telemetry harness for bench binaries.
///
/// Construct FIRST in main() — before any Testbed or client — so every
/// instrumented component binds its metric handles to this run's isolated
/// context. Parses `--telemetry-out <path>` (or `--telemetry-out=<path>`)
/// from argv; when present, a ring-buffer trace sink is attached and
/// `finalize(sim_end)` writes the JSONL run report (schema in
/// src/obs/report.h) to that path. Also parses `--profile-out <path>`:
/// when present, the run's span profiler is enabled and finalize()
/// exports span aggregates into the metrics registry (so they land in
/// the run report too) and writes the Chrome trace-event JSON there.
/// Also parses `--query-trace-out <path>`: when present, the run's
/// query tracer is enabled and finalize() writes the per-query causal
/// trace JSONL there (schema in src/obs/query_trace.h; inspect with
/// `mntp-inspect explain`). Also parses `--timeline-out <path>` (with
/// optional `--timeline-cadence-ms <ms>`, default 1000): when present,
/// the run's sim-time series recorder is enabled, every instrumented
/// component's probes get sampled on the cadence, and finalize() writes
/// the timeline JSONL there (schema in src/obs/timeseries.h; inspect
/// with `mntp-inspect timeline`). Without any flag the run pays only
/// counter increments and finalize() is a no-op.
///
/// Fleet-scale knobs (all opt-in; without them every artifact and stdout
/// line is byte-identical to the plain flags above):
///
///   * `--query-trace-sample N` — deterministic 1-in-N trace sampling
///     (hash-of-id gate; see QueryTracer::Sampling), with
///     `--query-trace-seed S` (default 0) selecting the kept set and
///     `--query-trace-reservoir M` capping it at M traces.
///   * `--query-trace-stream` — stream finished traces straight to
///     --query-trace-out through a bounded reorder buffer instead of
///     retaining them (obs/streaming.h); memory stays O(open queries).
///   * `--obs-self` — meter the telemetry itself: finalize() writes the
///     run report LAST and folds an obs.self.* metric family (artifact
///     bytes, stream flushes, registry merge wall time) plus the
///     obs.query_trace.{kept,sampled_out,dropped} reconciliation
///     counters into it.
class BenchTelemetry {
 public:
  BenchTelemetry(std::string run_name, int argc, char** argv);

  /// True when --telemetry-out was passed.
  [[nodiscard]] bool enabled() const { return !out_path_.empty(); }
  /// True when --profile-out was passed (span profiling active).
  [[nodiscard]] bool profiling() const { return !profile_path_.empty(); }
  /// True when --query-trace-out was passed (query tracing active).
  [[nodiscard]] bool query_tracing() const {
    return !query_trace_path_.empty();
  }
  /// True when --timeline-out was passed (sim-time sampling active).
  [[nodiscard]] bool timeline_enabled() const {
    return !timeline_path_.empty();
  }
  [[nodiscard]] const std::string& out_path() const { return out_path_; }
  [[nodiscard]] const std::string& profile_path() const {
    return profile_path_;
  }
  [[nodiscard]] const std::string& query_trace_path() const {
    return query_trace_path_;
  }
  [[nodiscard]] const std::string& timeline_path() const {
    return timeline_path_;
  }
  [[nodiscard]] obs::Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] obs::TimeSeriesRecorder& timeseries() {
    return telemetry_.timeseries();
  }

  /// True when --query-trace-stream was passed (and the sink opened).
  [[nodiscard]] bool query_trace_streaming() const { return query_streaming_; }
  /// True when --obs-self was passed (self-overhead metering).
  [[nodiscard]] bool self_metering() const { return obs_self_; }

  /// Write the report / Chrome trace / query trace (no-op without the
  /// flags). Returns false and prints to stderr on I/O failure.
  bool finalize(core::TimePoint sim_end);

 private:
  bool write_report(core::TimePoint sim_end);
  bool write_profile();
  bool write_query_trace(core::TimePoint sim_end);
  bool write_timeline(core::TimePoint sim_end);
  /// Adds the on-disk size of `path` to artifact_bytes_ (self-metering).
  void account_artifact(const std::string& path);

  std::string run_name_;
  std::string out_path_;
  std::string profile_path_;
  std::string query_trace_path_;
  std::string timeline_path_;
  bool query_streaming_ = false;
  bool obs_self_ = false;
  std::uint64_t artifact_bytes_ = 0;
  std::uint64_t timeline_flushes_ = 0;
  obs::Telemetry telemetry_;
  obs::StreamingQueryTraceSink query_stream_;
  obs::ScopedTelemetry scope_;
};

}  // namespace mntp::bench
