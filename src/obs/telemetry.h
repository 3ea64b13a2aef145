// Telemetry context: one object bundling the metrics registry, the span
// profiler, the per-query tracer and the sim-time series recorder,
// global by default but injectable per run.
//
// Instrumented components resolve their metric handles from the telemetry
// that is *current at their construction time*. The process-wide default
// (`Telemetry::global()`) always exists, so instrumentation never needs a
// null check; a bench or test that wants an isolated view installs its
// own context with `ScopedTelemetry` BEFORE building the components it
// wants to observe:
//
//     obs::Telemetry tel;
//     tel.query_tracer().set_enabled(true);
//     obs::ScopedTelemetry scope(tel);   // global() now returns tel
//     ntp::Testbed bed(config);          // components bind to tel
//     ...run...                           // tel.metrics(), tel.query_tracer()
//
// With every recorder off (the default), an instrumented hot path pays
// only its counter increments.
//
// Thread safety: metric recording is thread-safe (see obs/metrics.h), and
// the profiler, query tracer and series recorder each serialize their own
// stores, so concurrent writers (e.g. tuner-search workers on a
// core::ThreadPool) may share one Telemetry.
#pragma once

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/query_trace.h"
#include "obs/timeseries.h"

namespace mntp::obs {

// Compatibility shim whose only user is e2e_bench/workloads.cc, which is
// frozen with BENCHMARK.json and still spells the deleted trace-event
// API: it declares a RingBufferSink, attaches it with
// Telemetry::add_sink, and passes it to the four-argument
// write_run_report_file (obs/report.h). All three are no-ops or
// forwards. Delete them with the next change to the benchmark.
struct RingBufferSink {};

class Telemetry {
 public:
  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  /// Span profiler bound to this context (see obs/profiler.h). Off by
  /// default; enable with profiler().set_enabled(true), read results via
  /// profiler().stats() / export_to_metrics / write_chrome_trace.
  [[nodiscard]] Profiler& profiler() { return profiler_; }
  [[nodiscard]] const Profiler& profiler() const { return profiler_; }

  /// Per-query causal tracer bound to this context (see
  /// obs/query_trace.h). Off by default; enable with
  /// query_tracer().set_enabled(true), export via
  /// query_tracer().to_jsonl / write_jsonl_file.
  [[nodiscard]] QueryTracer& query_tracer() { return query_tracer_; }
  [[nodiscard]] const QueryTracer& query_tracer() const {
    return query_tracer_;
  }

  /// Sim-time series recorder bound to this context (see
  /// obs/timeseries.h). Off by default; enable with
  /// timeseries().set_enabled(true) BEFORE constructing simulations and
  /// instrumented components, export via write_timeline_file.
  [[nodiscard]] TimeSeriesRecorder& timeseries() { return timeseries_; }
  [[nodiscard]] const TimeSeriesRecorder& timeseries() const {
    return timeseries_;
  }

  /// Shim for e2e_bench/workloads.cc; see RingBufferSink above.
  void add_sink(const RingBufferSink*) {}

  /// Master switch for metric recording. Metric handles stay valid;
  /// every record degrades to one branch. Used to quantify
  /// instrumentation overhead.
  void set_enabled(bool enabled) { metrics_.set_enabled(enabled); }

  /// The current process-wide context (the installed scoped context, or
  /// the built-in default).
  [[nodiscard]] static Telemetry& global();

 private:
  friend class ScopedTelemetry;
  static Telemetry*& global_slot();

  MetricsRegistry metrics_;
  Profiler profiler_;
  QueryTracer query_tracer_;
  TimeSeriesRecorder timeseries_;
};

/// Installs `telemetry` as the global context for this scope; restores
/// the previous context on destruction. Nestable.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(Telemetry& telemetry)
      : previous_(Telemetry::global_slot()) {
    Telemetry::global_slot() = &telemetry;
  }
  ~ScopedTelemetry() { Telemetry::global_slot() = previous_; }
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  Telemetry* previous_;
};

}  // namespace mntp::obs
