// Hierarchical, thread-aware span profiler.
//
// Answers "where does a run spend its wall time?" — the question the
// metrics registry's flat histograms cannot: spans nest (engine round
// inside run_until inside a bench), and the profiler attributes to each
// span both its *total* duration and its *self* time (total minus the
// time spent in nested spans), per thread.
//
// Usage: wrap a scope in a RAII `ProfileScope`:
//
//     void Simulation::run_until(core::TimePoint deadline) {
//       obs::ProfileScope span(obs::spans::kSimRunUntil);
//       ...
//     }
//
// Span names must be string literals (static storage): the hot path
// stores the pointer, never copies the string.
//
// The profiler hangs off the `Telemetry` context (obs/telemetry.h), so
// `ScopedTelemetry` injection isolates profiles per run exactly like it
// isolates metrics. Profiling is OFF by default; `ProfileScope` guards on
// a cached atomic flag (the same discipline as `QueryTracer::enabled()`),
// so an instrumented hot path in a non-profiled run pays one function
// call, one relaxed load and one branch — nothing else. Nothing ever
// reads profiler state back into simulation logic, so enabling profiling
// cannot change any simulated result.
//
// The profiler keeps only per-span-name aggregates (count, total/self
// wall, min/p50/max), so memory and export size depend on the number of
// span names, not on the number of spans. Two exporters:
//   * `export_to_metrics` — the aggregates as `profile.span.*` gauges
//     labelled {span=<name>}, which the run-report writer (obs/report.h)
//     then serializes like any other metric;
//   * `write_chrome_trace[_file]` — the aggregates as a Chrome
//     trace-event JSON object (open in chrome://tracing or Perfetto),
//     one complete ("ph":"X") event per span name; this is the artifact
//     `mntp-inspect` summarizes and `mntp-inspect diff` compares.
//
// Thread safety: spans may open and close concurrently on any thread
// (each thread keeps its own span stack; completed spans serialize on
// one mutex into the aggregates). A span crossing a
// `ScopedTelemetry` boundary records into the profiler that was current
// at its *open*; nesting accounting (self time) spans such boundaries
// transparently.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"

namespace mntp::obs {

class Profiler {
 public:
  /// Per-span-name aggregate over every recorded span. Wall times are
  /// nanoseconds on the host steady clock.
  struct SpanStats {
    std::string name;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::int64_t min_ns = 0;
    std::int64_t max_ns = 0;
    double p50_ns = 0.0;  ///< HDR-histogram median of span durations
  };

  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Master switch, off by default. Cached atomic — `ProfileScope` polls
  /// it on every construction, from any thread, lock-free.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Fold one completed span into its name's aggregate (normally called
  /// by ProfileScope, public for tests and custom instrumentation).
  void record(std::string_view name, std::int64_t dur_ns,
              std::int64_t self_ns);

  /// Aggregates per span name, name-sorted.
  [[nodiscard]] std::vector<SpanStats> stats() const;
  /// Total spans ever recorded.
  [[nodiscard]] std::uint64_t total_spans() const;

  /// Publish the per-span aggregates into `registry` as `profile.span.*`
  /// gauges labelled {span=<name>}, in microseconds. Idempotent: gauges
  /// are set, not accumulated.
  void export_to_metrics(MetricsRegistry& registry) const;

  /// Nanoseconds on the host steady clock since this profiler was
  /// constructed (the time base of span start/stop stamps).
  [[nodiscard]] std::int64_t now_ns() const;

 private:
  struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::int64_t min_ns = 0;
    std::int64_t max_ns = 0;
    /// Durations in microseconds: the default 1e-3..1e9 range spans
    /// 1 ns..1000 s at 2^-6 relative error.
    HdrHistogram dur_us;
  };

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  /// Transparent comparator: the hot path looks names up without
  /// building a std::string.
  std::map<std::string, Aggregate, std::less<>> aggregates_;
};

/// The profiler of the current `Telemetry::global()` context.
[[nodiscard]] Profiler& current_profiler() noexcept;

/// RAII span. Opens against the *current* profiler (captured at
/// construction); when profiling is disabled the constructor returns
/// after one flag check and the destructor is a single branch.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name)
      : active_(current_profiler().enabled()) {
    if (active_) open(name);
  }
  ~ProfileScope() {
    if (active_) close();
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  static void open(const char* name);
  static void close();

  bool active_;
};

/// Render the aggregates as a Chrome trace-event JSON object
/// (chrome://tracing / Perfetto "JSON" format): {"traceEvents":[...]},
/// one "ph":"X" event per span name (cat "aggregate", pid/tid 1) laid
/// end to end on synthetic timestamps; `dur` is the summed wall time in
/// microseconds and "args" carries self_us, depth 0, agg_count (spans
/// folded in) and min_us/p50_us/max_us.
void write_chrome_trace(std::ostream& out, const Profiler& profiler,
                        std::string_view run_name = "mntp");

/// File variant; fails on unwritable paths.
core::Status write_chrome_trace_file(const std::string& path,
                                     const Profiler& profiler,
                                     std::string_view run_name = "mntp");

}  // namespace mntp::obs
