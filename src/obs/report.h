// Per-run telemetry reports: a machine-readable JSONL dump of the metrics
// snapshot, written by every bench binary when `--telemetry-out <path>`
// is passed (see bench/common.h).
//
// Schema (version 1; validated by scripts/check_telemetry_schema.py and
// documented in DESIGN.md §Observability). One JSON object per line:
//
//   line 1   {"type":"meta","schema_version":1,"run":"<name>",
//             "sim_end_ns":<int>,"metric_count":<int>,"event_count":0}
//   metrics  {"type":"metric","kind":"counter","name":"..","labels":{..},
//             "value":<num>}
//            {"type":"metric","kind":"gauge",...,"value":<num>}
//            {"type":"metric","kind":"histogram","name":"..","labels":{..},
//             "count":<int>,"sum":<num>,"min":<num>,"max":<num>,
//             "p50":<num>,"p90":<num>,"p99":<num>,
//             "buckets":[{"le":<num-or-"inf">,"count":<int>},...]}
//
// event_count is always 0; it stays in the meta line so schema-v1
// readers keep validating. Per-query decisions are in the query trace
// (obs/query_trace.h), offset/drift series in the timeline
// (obs/timeseries.h).
#pragma once

#include <ostream>
#include <string>

#include "core/result.h"
#include "core/time.h"
#include "obs/telemetry.h"

namespace mntp::obs {

struct ReportOptions {
  /// Identifies the producing run in the meta line (e.g. the bench name).
  std::string run_name = "unnamed";
  /// Simulated end-of-run instant, recorded in the meta line.
  core::TimePoint sim_end;
};

/// Serialize one metric snapshot as its JSONL line.
[[nodiscard]] std::string to_jsonl_line(const MetricSnapshot& snapshot);

/// Write the full report: meta line, then metric lines (name-sorted).
void write_run_report(std::ostream& out, const Telemetry& telemetry,
                      const ReportOptions& options);

/// File variant; fails on unwritable paths.
core::Status write_run_report_file(const std::string& path,
                                   const Telemetry& telemetry,
                                   const ReportOptions& options);

/// Shim for e2e_bench/workloads.cc; see RingBufferSink in obs/telemetry.h.
inline core::Status write_run_report_file(const std::string& path,
                                          const Telemetry& telemetry,
                                          const RingBufferSink*,
                                          const ReportOptions& options) {
  return write_run_report_file(path, telemetry, options);
}

}  // namespace mntp::obs
