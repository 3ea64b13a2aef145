// Cross-run diff & regression-triage engine over the artifacts that
// obs/artifact.h reads.
//
// Every artifact the observability stack writes describes ONE run. The
// paper's whole evaluation is comparative, and so is every perf PR:
// the question is "what moved between these two runs, and which span /
// counter / reason / series moved it". read_pair() reads two artifacts
// of the same kind with read_artifact(), once each, and diff_pair()
// compares them; this module holds only the joins, the gate and the
// renderers.
//
// Every diff section is one outer join of two keyed maps under a
// per-kind rule:
//
//   * bench       — the perf gate: candidate_median <= baseline_median *
//                   (1 + tolerance) + max(abs_floor, 4 * baseline_mad);
//                   missing workloads fail, new ones are noted.
//                   DiffOptions::budgets add a "budgets" section, and
//                   render_perf_delta() writes the BENCH_pr*.json record.
//   * profile     — spans by self time, ranked by contribution
//                   |delta_self| / sum |delta_self|. Only increases
//                   beyond the allowance regress (a speedup is
//                   significant, not a regression), and so does a new
//                   span above abs_floor.
//   * report      — scalars keyed by name{labels}. The mntp.* / obs.*
//                   accounting counters reconcile exactly (`exact` when
//                   bit-equal, `shifted` — always significant —
//                   otherwise); other scalars and the histograms'
//                   count/p50/p90/p99 use the relative tolerance.
//   * query-trace — verdict shares by kind/reason (the causation table
//                   of `mntp-inspect`), two-proportion z score against
//                   sigma.
//   * timeline    — per series, RMS(B - A) of the mean series on a
//                   common grid, normalized by A's own spread, against
//                   the divergence threshold.
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
#include "obs/artifact.h"

namespace mntp::obs {

/// "k=v,k=v" (empty for no labels) — the one label formatter, behind
/// the inspector's label columns and the diff's `name{labels}` keys.
[[nodiscard]] std::string format_labels(const ArtifactLabels& labels);

/// Mean of bucket `i` of `buckets` equal runs of `v` (each run at least
/// one value) — the one resample behind the diff's common timeline grid
/// and the inspector's sparklines.
[[nodiscard]] double bucket_mean(const std::vector<double>& v, std::size_t i,
                                 std::size_t buckets);

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
  /// Non-empty budgets on any other kind make diff_pair fail.
  std::vector<BenchBudget> budgets;
};

/// Delta classes, the closed vocabulary of DiffEntry::cls. `exact` /
/// `shifted` are the exact-reconciliation classes reserved for integer
/// accounting counters (mntp.*, obs.*); everything else compares within
/// tolerance.
///   equal    — within tolerance (or bit-equal for non-accounting rows)
///   changed  — beyond tolerance
///   exact    — accounting counter, bit-equal
///   shifted  — accounting counter, differs (always significant)
///   added    — present only in B
///   removed  — present only in A
namespace diff_class {
inline constexpr const char* kEqual = "equal";
inline constexpr const char* kChanged = "changed";
inline constexpr const char* kExact = "exact";
inline constexpr const char* kShifted = "shifted";
inline constexpr const char* kAdded = "added";
inline constexpr const char* kRemoved = "removed";
inline constexpr const char* kAll[] = {kEqual,   kChanged, kExact,
                                       kShifted, kAdded,   kRemoved};
}  // namespace diff_class

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
  std::string cls;          // one of diff_class::kAll
  std::string note;         // free-form context ("new workload", ...)
};

struct DiffSection {
  std::string title;               // "workloads", "spans", "counters", ...
  std::vector<DiffEntry> entries;  // ranked most significant first
};

struct DiffResult {
  ArtifactKind kind = ArtifactKind::kBench;
  std::string a_path, b_path;
  std::string a_run, b_run;        // run names when the artifact has one
  std::size_t significant = 0;     // entries flagged significant
  std::size_t regressions = 0;     // entries counting toward exit 1
  std::vector<DiffSection> sections;
  /// Non-gating remarks for stderr (bench: baseline and candidate were
  /// built with a different compiler or build type).
  std::vector<std::string> warnings;

  /// The 0/1 half of the exit-code contract (2 is "read_pair or
  /// diff_pair returned an error" and never appears in a DiffResult).
  [[nodiscard]] int exit_code() const { return regressions > 0 ? 1 : 0; }
};

/// Two artifact files of one kind, decoded once each.
struct ArtifactPair {
  std::string a_path, b_path;
  ArtifactFile a, b;
};

/// Load and kind-detect two artifact files. Errors (unreadable file,
/// malformed artifact, unsupported or mismatched kinds) come back as
/// core::Result errors; the CLI maps them to exit 2.
[[nodiscard]] core::Result<ArtifactPair> read_pair(const std::string& a_path,
                                                   const std::string& b_path);

/// Diff the pair. Budgets on any kind but bench are an error.
[[nodiscard]] core::Result<DiffResult> diff_pair(const ArtifactPair& pair,
                                                 const DiffOptions& options);

/// The before/after record of a bench pair (A = baseline, B =
/// candidate) in the committed BENCH_pr*.json format: kind
/// mntp_perf_delta, schema_version 1, B's environment, and per workload
/// (candidate order) the after/before median and MAD plus the speedup
/// before/after rounded to 3 decimals; candidate-only workloads get a
/// null before_median_us and a note, baseline-only ones follow with a
/// null after_median_us. Fails unless both files are bench artifacts.
[[nodiscard]] core::Result<std::string> render_perf_delta(
    const ArtifactPair& pair);

/// Human rendering: one aligned table per section (rows capped at
/// options.top) plus a one-line verdict.
[[nodiscard]] std::string render_diff_text(const DiffResult& result,
                                           const DiffOptions& options);

/// Machine rendering: single JSON document, kind "mntp_diff",
/// schema_version 1, validated by `mntp-inspect validate`. Carries
/// every entry (no top cap) so downstream triage never loses
/// attribution.
[[nodiscard]] std::string render_diff_json(const DiffResult& result,
                                           const DiffOptions& options);

}  // namespace mntp::obs
