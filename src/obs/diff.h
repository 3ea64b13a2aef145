// Cross-run diff & regression-triage engine.
//
// Every artifact the observability stack writes — perf-suite baselines
// (BENCH_*.json), Chrome span profiles (--profile-out), JSONL run
// reports (--telemetry-out), causal query traces (--query-trace-out)
// and sim-time timelines (--timeline-out) — describes ONE run. The
// paper's whole evaluation is comparative, and so is every perf PR:
// the question is never "what did this run do" but "what moved between
// these two runs, and which span / counter / reason / series moved it".
//
// diff_files() loads two artifacts of the same kind (kind auto-detected
// from content, exactly like tools/mntp_inspect and
// check_telemetry_schema.py) and computes statistically-aware deltas:
//
//   * bench       — the perf gate: per workload, candidate_median <=
//                   baseline_median * (1+tolerance) + max(abs_floor,
//                   4 * baseline_mad); missing workloads fail, new
//                   ones are noted. Optional within-candidate budgets
//                   (DiffOptions::budgets) add a "budgets" section, and
//                   render_perf_delta() writes the before/after record
//                   committed as BENCH_pr*.json.
//   * profile     — spans aggregated by name (count / total_us /
//                   self_us summed over complete events; an aggregate
//                   event stands for args.agg_count spans), deltas
//                   attributed per span and ranked by self-time
//                   contribution: |delta_self| / sum |delta_self|.
//                   Only *increases* beyond the allowance gate; a
//                   speedup is significant but not a regression.
//   * report      — scalar metric deltas keyed by name{labels}. The
//                   mntp.* / obs.* accounting counters (integer-valued
//                   by construction) get exact-reconciliation classes:
//                   `exact` when bit-equal, `shifted` otherwise —
//                   these counters are the ledgers the causation
//                   tables reconcile against, so any shift is
//                   significant regardless of magnitude. Other scalars
//                   use the relative-tolerance rule; histograms diff
//                   on count and p50/p90/p99; event counts by
//                   category/name diff like counters.
//   * query-trace — verdict/reason distribution shift: queries
//                   bucketed by kind/reason (the causation table of
//                   `mntp-inspect`), compared as proportions with a
//                   two-proportion z score; |z| > sigma is
//                   significant.
//   * timeline    — per-series divergence: both mean-series resampled
//                   onto a common grid, score = RMS(B - A) normalized
//                   by A's own spread; score > divergence threshold is
//                   significant.
//
// Direction ("regression") is kind-specific: bench/profile regress on
// slowdowns only; report / query-trace / timeline are behavioural
// drift detectors, so every significant divergence counts as a
// regression for the exit-code contract. The CLI maps the result to
// exit 0 (identical within tolerance), 1 (significant regression) and
// 2 (error: unreadable, malformed, or mixed artifact kinds).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"

namespace mntp::obs {

/// Artifact kinds the diff engine understands.
enum class DiffKind { kBench, kProfile, kReport, kQueryTrace, kTimeline };

/// Stable lowercase name used in JSON output and error messages.
[[nodiscard]] const char* diff_kind_name(DiffKind kind);

/// A within-candidate bench budget (`--budget A:B:PCT`): in file B,
/// workload `a`'s median must satisfy median(a) <= median(b) * (1 +
/// pct/100). Both medians come from the same run, so machine speed
/// cancels out (this is how the telemetry-off overhead claim is gated).
struct BenchBudget {
  std::string spec;  // as given; names the entry in the "budgets" section
  std::string a, b;
  double pct = 0.0;
};

/// Parse "A:B:PCT" (two non-empty workload names and a finite number).
[[nodiscard]] core::Result<BenchBudget> parse_bench_budget(
    std::string_view spec);

struct DiffOptions {
  /// Relative tolerance for bench medians, profile span times and
  /// report scalars.
  double tolerance = 0.5;
  /// Absolute allowance floor in microseconds for bench/profile time
  /// deltas.
  double abs_floor_us = 200.0;
  /// Two-proportion z threshold for query-trace distribution shifts.
  double sigma = 4.0;
  /// Normalized-RMS threshold for timeline series divergence.
  double divergence = 0.25;
  /// Rows rendered per section in the human tables (JSON always
  /// carries every entry; exit codes never depend on this cap).
  std::size_t top = 20;
  /// Bench budgets; a failed or unresolvable one is a regression.
  /// Non-empty budgets on any other kind make diff_files fail.
  std::vector<BenchBudget> budgets;
};

/// Delta classes. `exact` / `shifted` are the exact-reconciliation
/// classes reserved for integer accounting counters (mntp.*, obs.*);
/// everything else compares within tolerance.
///   equal    — within tolerance (or bit-equal for non-accounting rows)
///   changed  — beyond tolerance
///   exact    — accounting counter, bit-equal
///   shifted  — accounting counter, differs (always significant)
///   added    — present only in B
///   removed  — present only in A
struct DiffEntry {
  std::string name;
  bool has_before = false;
  bool has_after = false;
  double before = 0.0;
  double after = 0.0;
  double delta = 0.0;  // after - before (0 when one side is absent)
  /// Kind-specific significance score: allowance headroom ratio for
  /// bench/profile, contribution share for profile ranking, |z| for
  /// query-trace, normalized RMS for timeline, relative change for
  /// report scalars.
  double score = 0.0;
  bool significant = false;
  bool regression = false;  // counts toward the exit-1 verdict
  std::string cls;          // see class vocabulary above
  std::string note;         // free-form context ("new workload", ...)
};

struct DiffSection {
  std::string title;               // "workloads", "spans", "counters", ...
  std::vector<DiffEntry> entries;  // ranked most significant first
};

struct DiffResult {
  DiffKind kind = DiffKind::kBench;
  std::string a_path, b_path;
  std::string a_run, b_run;        // run names when the artifact has one
  std::size_t significant = 0;     // entries flagged significant
  std::size_t regressions = 0;     // entries counting toward exit 1
  std::vector<DiffSection> sections;
  /// Non-gating remarks for stderr (bench: baseline and candidate were
  /// built with a different compiler or build type).
  std::vector<std::string> warnings;

  /// The 0/1 half of the exit-code contract (2 is "diff_files returned
  /// an error" and never appears in a DiffResult).
  [[nodiscard]] int exit_code() const { return regressions > 0 ? 1 : 0; }
};

/// Load, kind-detect and diff two artifact files. Errors (unreadable
/// file, malformed artifact, unsupported or mismatched kinds) come back
/// as core::Result errors; the CLI maps them to exit 2.
[[nodiscard]] core::Result<DiffResult> diff_files(const std::string& a_path,
                                                  const std::string& b_path,
                                                  const DiffOptions& options);

/// The before/after record of a bench pair (A = baseline, B =
/// candidate) in the committed BENCH_pr*.json format: kind
/// mntp_perf_delta, schema_version 1, B's environment, and per workload
/// (candidate order) the after/before median and MAD plus the speedup
/// before/after rounded to 3 decimals; candidate-only workloads get a
/// null before_median_us and a note, baseline-only ones follow with a
/// null after_median_us. Fails unless both files are bench artifacts.
[[nodiscard]] core::Result<std::string> render_perf_delta(
    const std::string& a_path, const std::string& b_path);

/// Human rendering: one aligned table per section (rows capped at
/// options.top) plus a one-line verdict.
[[nodiscard]] std::string render_diff_text(const DiffResult& result,
                                           const DiffOptions& options);

/// Machine rendering: single JSON document, kind "mntp_diff",
/// schema_version 1, validated by check_telemetry_schema.py --kind
/// diff. Carries every entry (no top cap) so downstream triage never
/// loses attribution.
[[nodiscard]] std::string render_diff_json(const DiffResult& result,
                                           const DiffOptions& options);

}  // namespace mntp::obs
