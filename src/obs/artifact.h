// The one reader of the observability artifacts.
//
// Every artifact the observability stack writes describes one run:
// perf-suite baselines (BENCH_*.json), Chrome span profiles
// (--profile-out), JSONL run reports (--telemetry-out), causal query
// traces (--query-trace-out), sim-time timelines (--timeline-out),
// `mntp-inspect diff --json` records, fleet reports (--fleet-out) and
// `diff --write-delta` perf deltas.
//
// Both entry points read, parse and classify a file by content with one
// loader, then one reader per kind reads each field once, in one of two
// modes:
//
//   * strict  — validate_artifact(): every schema rule of the kind, the
//               first broken one named with where it broke;
//   * lenient — read_artifact(): no rule, each field decoded into the
//               kind's struct below as core::Json's accessors read it
//               (absent keys as neutral defaults), for `mntp-inspect`
//               and the diff (obs/diff.h) to render best-effort.
//
// The first five kinds decode; the last three are only validated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/result.h"

namespace mntp::obs {

/// Artifact kinds, classified by content. The first five decode and
/// diff; a diff record (kind mntp_diff), a fleet report (kind
/// mntp_fleet_report) and a perf delta (kind mntp_perf_delta, written
/// by `diff --write-delta`) are only validated.
enum class ArtifactKind {
  kBench, kProfile, kReport, kQueryTrace, kTimeline, kDiff, kFleet, kPerfDelta
};

/// Stable lowercase name used in JSON output and error messages.
[[nodiscard]] const char* artifact_kind_name(ArtifactKind kind);

/// Labels as the artifacts write them: a {"key":"value"} object.
using ArtifactLabels = std::map<std::string, std::string>;

/// bench: a perf_suite result (BENCH_*.json).
struct BenchWorkload {
  std::string name;
  double median_us = 0.0, mad_us = 0.0, p95_us = 0.0, min_us = 0.0,
         max_us = 0.0;
};
struct BenchArtifact {
  long long reps = 0, warmup = 0;
  core::Json environment;                // flat object: strings, numbers
  std::vector<BenchWorkload> workloads;  // file order
};

/// profile: Chrome trace events aggregated by span name. A plain event
/// is one span; an aggregate event (--profile-out) stands for
/// args.agg_count spans and carries their range in args.min_us/max_us
/// when the producer wrote it.
struct SpanAggregate {
  double count = 0.0, total_us = 0.0, self_us = 0.0, min_us = 0.0,
         max_us = 0.0;
  bool has_range = true;  // false once an aggregate event lacks min/max
};
struct ProfileArtifact {
  std::map<std::string, SpanAggregate> spans;
};

/// report: one metric line (histogram fields are 0 on scalars).
struct ReportMetric {
  std::string name;
  ArtifactLabels labels;
  std::string kind;  // counter, gauge or histogram
  double value = 0.0;
  long long count = 0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;
};
struct ReportArtifact {
  long long metric_count = 0;         // as the meta line declares
  std::vector<ReportMetric> metrics;  // file order
};

/// query trace: one query line and its stages.
struct TraceStage {
  std::string stage, reason;
  long long t_ns = 0;
  core::Json fields;  // free-form object
};
struct TraceQuery {
  long long id = 0, parent = 0;  // parent 0: a root
  std::string kind;
  long long start_ns = 0;
  std::vector<TraceStage> stages;
  std::string verdict;  // the verdict stage's reason, or "unfinished"
  /// The terminal stage (the last named "verdict"), or nullptr for a
  /// query that never finished.
  [[nodiscard]] const TraceStage* verdict_stage() const;
};
struct QueryTraceArtifact {
  long long dropped = 0;
  bool sampled = false;  // the meta line carried a "sampling" block
  long long sample_one_in_n = 1, minted = 0, kept = 0, sampled_out = 0;
  std::uint64_t seed = 0;
  std::vector<TraceQuery> queries;  // file order
};

/// timeline: one series line; per point ([t_ns,min,mean,max,last,count])
/// the time of its last folded sample and min/mean/max of its samples.
struct TimelineSeries {
  std::string name;
  ArtifactLabels labels;
  std::string probe;
  long long samples = 0, stride = 0;
  std::vector<long long> t_ns;
  std::vector<double> min, mean, max;
  double last = 0.0;  // the last point's last sample
};
struct TimelineArtifact {
  long long cadence_ns = 0, series_count = 0;  // as the meta line declares
  std::vector<TimelineSeries> series;          // file order
};

/// One artifact decoded into the member `kind` names.
struct ArtifactFile {
  ArtifactKind kind = ArtifactKind::kBench;
  std::string run;  // the meta line's run, or the profile's process_name
  long long schema_version = 0;  // bench document / meta line
  long long sim_end_ns = 0;      // meta line
  BenchArtifact bench;
  ProfileArtifact profile;
  ReportArtifact report;
  QueryTraceArtifact trace;
  TimelineArtifact timeline;
};

/// Load `path`, then run its kind's reader in lenient mode — behind
/// `mntp-inspect` and diff_files alike. Load errors carry the path:
/// kIo when the file cannot be read, kMalformedPacket for an empty file
/// or a last line that is not JSON (a cut-off write), kInvalidArgument
/// for a bad line anywhere else (as `path:line: ...`) or a readable
/// document of no known kind. Reader errors are kInvalidArgument: a
/// validate-only kind, and what no reader can go on without (a bench or
/// profile document without its workloads / traceEvents array, a bench
/// workload without a name).
[[nodiscard]] core::Result<ArtifactFile> read_artifact(
    const std::string& path);

/// Load `path`, then run its kind's reader in strict mode: shapes,
/// integer-vs-number types, the closed vocabularies (reasons, diff
/// classes, metric and probe kinds, fleet speakers, populations and
/// categories), ordering, and the conservation ledgers. Returns a
/// one-line summary of a valid artifact. Errors are read_artifact's load
/// errors, plus kInvalidArgument naming the first broken rule and where
/// it broke (`path: line 3: stages[1]: unknown reason 'x'`).
[[nodiscard]] core::Result<std::string> validate_artifact(
    const std::string& path);

}  // namespace mntp::obs
