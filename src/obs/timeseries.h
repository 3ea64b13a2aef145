// Sim-time series recorder: how metrics evolve over *simulated* time.
//
// The registry (obs/metrics.h) and the report (obs/report.h) are
// end-of-run summaries; the profiler and query tracer are per-span /
// per-query. None of them answers "what did the offset estimate, the OWD,
// the queue depth, the battery draw look like minute by minute" — the
// view the paper's Figures 7–8 plot and the roadmap's fleet-scale and
// mobility items need. The TimeSeriesRecorder fills that gap:
//
//   * Components register PROBES — callbacks returning an optional scalar
//     at a given sim time, or counter handles the recorder reads itself
//     (differenced into per-interval deltas).
//   * The recorder itself never schedules anything (obs depends only on
//     core, never on sim). sim::Simulation drives it: when the recorder
//     is capturing, run_until() arms a self-rescheduling EventQueue event
//     that calls sample(now) on the configured sim-time cadence. When the
//     recorder is off — the default — no event is ever scheduled, so
//     runs without --timeline-out are bit-identical to a build without
//     this file.
//   * Samples land in fixed-capacity per-series buffers. On overflow the
//     buffer halves itself by merging adjacent points and doubles the
//     number of samples per point, so a series degrades into bucketed
//     min/mean/max/last at 2x coarser resolution instead of dropping
//     data. Memory stays bounded for arbitrarily long runs.
//
// Probe lifetime: registration returns a move-only ProbeHandle that
// unregisters on destruction — instrumented components hold one member,
// so a component that dies mid-run (or a bench that builds several
// testbeds in sequence) stops being sampled without dangling callbacks.
// The sampled DATA outlives the probe: series stay in the recorder until
// export. Registration always creates a fresh series (a "#2" suffix on
// name collision) — two components constructed in sequence never
// interleave their samples into one series.
//
// Replicated runs: exactly one replicate captures the timeline
// (replicate 0, whose seed IS the single-run experiment).
// sim::ReplicationRunner runs every other replicate under a thread-local
// SuppressScope; components it constructs get inert probe handles and
// its simulations never arm the sampler.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"
#include "core/time.h"
#include "obs/metrics.h"

namespace mntp::obs {

/// One downsampled point: `count` raw samples collapsed into
/// min/mean/max/last, stamped with the time of the last raw sample.
struct TimeSeriesPoint {
  std::int64_t t_ns = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double last = 0.0;
  std::uint64_t count = 0;

  [[nodiscard]] double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Probe kinds as timelines write them: how a series' value was obtained.
inline constexpr const char* kCallbackProbe = "callback";
inline constexpr const char* kCounterProbe = "counter";

/// One named series: metadata plus the (possibly downsampled) points.
class TimeSeries {
 public:
  TimeSeries(std::string name, Labels labels, std::string probe_kind,
             std::size_t capacity);

  /// Fold one raw sample in, compacting 2:1 on overflow.
  void append(std::int64_t t_ns, double value);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Labels& labels() const { return labels_; }
  /// kCallbackProbe or kCounterProbe.
  [[nodiscard]] const std::string& probe_kind() const { return probe_kind_; }
  [[nodiscard]] const std::vector<TimeSeriesPoint>& points() const {
    return points_;
  }
  /// Raw samples folded in so far (>= points().size()).
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  /// Raw samples currently merged per point (doubles on each compaction).
  [[nodiscard]] std::uint64_t stride() const { return stride_; }

 private:
  void compact();

  std::string name_;
  Labels labels_;
  std::string probe_kind_;
  std::size_t capacity_;
  std::uint64_t stride_ = 1;
  std::uint64_t samples_ = 0;
  std::vector<TimeSeriesPoint> points_;
};

class TimeSeriesRecorder;

/// Move-only registration handle; unregisters the probe on destruction.
/// A default-constructed (or suppressed-registration) handle is inert.
class ProbeHandle {
 public:
  ProbeHandle() = default;
  ProbeHandle(ProbeHandle&& other) noexcept;
  ProbeHandle& operator=(ProbeHandle&& other) noexcept;
  ~ProbeHandle();
  ProbeHandle(const ProbeHandle&) = delete;
  ProbeHandle& operator=(const ProbeHandle&) = delete;

  [[nodiscard]] bool active() const { return recorder_ != nullptr; }
  void reset();

 private:
  friend class TimeSeriesRecorder;
  ProbeHandle(TimeSeriesRecorder* recorder, std::uint64_t id)
      : recorder_(recorder), id_(id) {}
  TimeSeriesRecorder* recorder_ = nullptr;
  std::uint64_t id_ = 0;
};

class TimeSeriesRecorder {
 public:
  /// A probe reads one scalar at sim time `now`; nullopt = "no value
  /// yet", and the sample is skipped (e.g. offset before the first
  /// accepted round).
  using Probe = std::function<std::optional<double>(core::TimePoint now)>;

  struct Options {
    /// Max stored points per series before 2:1 compaction kicks in.
    std::size_t series_capacity = 4096;
  };

  TimeSeriesRecorder();
  explicit TimeSeriesRecorder(Options options);
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  /// Sampling cadence in sim time; the simulation reads this when arming
  /// its sampler event. Must be > 0.
  void set_cadence(core::Duration cadence);
  [[nodiscard]] core::Duration cadence() const;

  /// Master switch, off by default. Enabling never retro-samples; it only
  /// makes future registrations and simulations take effect.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Thread-local suppression for replicate workers: while a SuppressScope
  /// is active on this thread, capturing() is false here regardless of
  /// enabled().
  class SuppressScope {
   public:
    explicit SuppressScope(bool engage = true);
    ~SuppressScope();
    SuppressScope(const SuppressScope&) = delete;
    SuppressScope& operator=(const SuppressScope&) = delete;

   private:
    bool engaged_;
  };
  [[nodiscard]] static bool suppressed();

  /// True when this thread should register probes / arm samplers:
  /// enabled and not thread-locally suppressed.
  [[nodiscard]] bool capturing() const { return enabled() && !suppressed(); }

  /// Register a probe; returns an inert handle when not capturing().
  /// Always creates a new series (name collisions get a "#2", "#3", ...
  /// suffix).
  ProbeHandle probe(std::string_view name, Labels labels, Probe fn);
  /// Samples the per-interval DELTA of a monotonic running total (0 on
  /// the first sample). `total` is read on the simulation thread, so it
  /// should be a tally that simulation owns (a component's own count),
  /// not a process-wide counter other threads also bump.
  ProbeHandle counter_probe(std::string_view name, Labels labels,
                            std::function<std::uint64_t()> total);

  /// Evaluate every live probe at sim time `now` and fold the values into
  /// their series. Called by sim::Simulation's sampler event.
  void sample(core::TimePoint now);

  [[nodiscard]] std::size_t series_count() const;
  /// Total raw samples folded across all series.
  [[nodiscard]] std::uint64_t samples_taken() const;
  /// Stable pointers into the recorder; valid until destruction.
  [[nodiscard]] std::vector<const TimeSeries*> series() const;

 private:
  friend class ProbeHandle;
  struct Registration {
    std::uint64_t id = 0;
    Probe fn;
    TimeSeries* series = nullptr;
    std::uint64_t last_counter = 0;  // counter probes: previous reading
  };

  void unregister(std::uint64_t id);
  ProbeHandle register_probe(std::string_view name, Labels labels,
                             std::string probe_kind, Probe fn,
                             std::uint64_t initial_counter);

  Options options_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  core::Duration cadence_ = core::Duration::seconds(1);
  std::uint64_t next_id_ = 1;
  std::uint64_t samples_taken_ = 0;
  std::vector<Registration> probes_;
  std::vector<std::unique_ptr<TimeSeries>> series_;
};

/// Serialize as timeline JSONL (schema_version 1, kind "mntp_timeline"):
/// a meta line, then one line per non-empty series with points as
/// [t_ns, min, mean, max, last, count] arrays. Validated by
/// `mntp-inspect validate`; rendered by `mntp-inspect timeline`.
void write_timeline(std::ostream& out, const TimeSeriesRecorder& recorder,
                    std::string_view run_name, core::TimePoint sim_end);

/// write_timeline to a file; fails on I/O error.
core::Status write_timeline_file(const std::string& path,
                                 const TimeSeriesRecorder& recorder,
                                 std::string_view run_name,
                                 core::TimePoint sim_end);

}  // namespace mntp::obs
