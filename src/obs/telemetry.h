// Telemetry context: one object bundling the metrics registry and the
// trace-event sinks, global by default but injectable per run.
//
// Instrumented components resolve their metric handles from the telemetry
// that is *current at their construction time*. The process-wide default
// (`Telemetry::global()`) always exists, so instrumentation never needs a
// null check; a bench or test that wants an isolated view installs its
// own context with `ScopedTelemetry` BEFORE building the components it
// wants to observe:
//
//     obs::Telemetry tel;
//     obs::RingBufferSink ring;
//     tel.add_sink(&ring);
//     obs::ScopedTelemetry scope(tel);   // global() now returns tel
//     ntp::Testbed bed(config);          // components bind to tel
//     ...run...                           // tel.metrics(), ring.events()
//
// Tracing discipline: event *construction* is the expensive part (field
// vectors, strings), so emitters must guard with `tracing()` — with no
// sinks attached (the default), an instrumented hot path pays only its
// counter increments.
//
// Thread safety: metric recording is thread-safe (see obs/metrics.h) and
// event emission serializes on an internal mutex, so concurrent writers
// (e.g. tuner-search workers on a core::ThreadPool) never interleave
// *within* a sink and sinks themselves need no locking as long as all
// emission flows through one Telemetry. Cross-thread event ORDER is
// whatever the mutex hands out — deterministic event streams must be
// emitted from a single thread (the parallel searcher scores on workers
// but emits its per-config events afterwards, in enumeration order, from
// the caller). Sink attach/detach is also serialized, but reconfiguring
// sinks while another thread emits is still a logic error — configure
// before fanning work out.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/time.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/query_trace.h"
#include "obs/timeseries.h"
#include "obs/trace_event.h"

namespace mntp::obs {

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

  /// Attach a non-owning sink; the sink must outlive this context (or be
  /// removed first).
  void add_sink(TraceSink* sink);
  void remove_sink(TraceSink* sink);
  void clear_sinks();

  /// True when at least one sink is attached — emitters use this to skip
  /// event construction entirely on untraced runs. Lock-free (reads a
  /// cached atomic), so hot paths on any thread can poll it freely.
  [[nodiscard]] bool tracing() const {
    return has_sinks_.load(std::memory_order_relaxed);
  }

  /// Fan an event out to every sink. Cheap no-op without sinks, but
  /// callers should still guard construction with tracing().
  void emit(const TraceEvent& event);

  /// Convenience emitter.
  void event(core::TimePoint t, std::string_view category,
             std::string_view name, std::vector<Field> fields = {});

  void flush();

  /// Master switch: disables metric recording AND event emission. Metric
  /// handles stay valid; every record degrades to one branch. Used to
  /// quantify instrumentation overhead.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

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
  std::mutex sink_mutex_;  // serializes emit/flush and sink attach/detach
  std::vector<TraceSink*> sinks_;
  std::atomic<bool> has_sinks_{false};
  std::atomic<bool> enabled_{true};
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
