#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "core/json_writer.h"
#include "obs/telemetry.h"
#include "obs/trace_event.h"

namespace mntp::obs {

namespace {

/// Open-span frame on the per-thread stack. The frame pins the profiler
/// that was current at open, so a span closing after a ScopedTelemetry
/// switch still records where it started; child-time accumulation walks
/// the stack irrespective of which profiler each frame belongs to.
struct Frame {
  Profiler* profiler;
  const char* name;
  std::int64_t start_ns;
  std::int64_t child_ns;
  std::int64_t sim_t_ns;
  bool has_sim;
};

thread_local std::vector<Frame> t_span_stack;

std::uint32_t this_thread_profile_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

Profiler::Profiler(Options options)
    : epoch_(std::chrono::steady_clock::now()), options_(options) {}

std::int64_t Profiler::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Profiler::record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  Aggregate& agg = aggregates_[span.name];
  if (agg.count == 0) {
    agg.min_ns = span.dur_ns;
    agg.max_ns = span.dur_ns;
  } else {
    agg.min_ns = std::min(agg.min_ns, span.dur_ns);
    agg.max_ns = std::max(agg.max_ns, span.dur_ns);
  }
  ++agg.count;
  agg.total_ns += span.dur_ns;
  agg.self_ns += span.self_ns;
  agg.dur_us.record(static_cast<double>(span.dur_ns) / 1e3);

  if (records_.size() < options_.max_records) {
    records_.push_back(span);
  } else {
    ++dropped_;
  }
}

std::vector<Profiler::SpanRecord> Profiler::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::vector<Profiler::SpanStats> Profiler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanStats> out;
  out.reserve(aggregates_.size());
  for (const auto& [name, agg] : aggregates_) {
    out.push_back(SpanStats{.name = name,
                            .count = agg.count,
                            .total_ns = agg.total_ns,
                            .self_ns = agg.self_ns,
                            .min_ns = agg.min_ns,
                            .max_ns = agg.max_ns,
                            .p50_ns = agg.dur_us.quantile(0.5) * 1e3});
  }
  return out;  // std::map iteration is already name-sorted
}

std::uint64_t Profiler::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::uint64_t Profiler::total_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size() + dropped_;
}

void Profiler::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
  aggregates_.clear();
  dropped_ = 0;
}

void Profiler::export_to_metrics(MetricsRegistry& registry) const {
  const std::vector<SpanStats> all = stats();
  const auto us = [](std::int64_t ns) {
    return static_cast<double>(ns) / 1e3;
  };
  for (const SpanStats& s : all) {
    const Labels labels{{"span", s.name}};
    registry.gauge("profile.span.count", labels)
        ->set(static_cast<double>(s.count));
    registry.gauge("profile.span.total_wall_us", labels)->set(us(s.total_ns));
    registry.gauge("profile.span.self_wall_us", labels)->set(us(s.self_ns));
    registry.gauge("profile.span.min_us", labels)->set(us(s.min_ns));
    registry.gauge("profile.span.p50_us", labels)->set(s.p50_ns / 1e3);
    registry.gauge("profile.span.max_us", labels)->set(us(s.max_ns));
  }
  if (const std::uint64_t n = dropped(); n > 0) {
    registry.gauge("profile.spans_dropped")->set(static_cast<double>(n));
  }
}

Profiler& current_profiler() noexcept { return Telemetry::global().profiler(); }

void ProfileScope::open(const char* name, bool has_sim,
                        core::TimePoint sim_t) {
  Profiler& profiler = current_profiler();
  t_span_stack.push_back(Frame{.profiler = &profiler,
                               .name = name,
                               .start_ns = profiler.now_ns(),
                               .child_ns = 0,
                               .sim_t_ns = sim_t.ns(),
                               .has_sim = has_sim});
}

void ProfileScope::close() {
  Frame frame = t_span_stack.back();
  t_span_stack.pop_back();
  const std::int64_t dur_ns = frame.profiler->now_ns() - frame.start_ns;
  if (!t_span_stack.empty()) t_span_stack.back().child_ns += dur_ns;
  frame.profiler->record(
      Profiler::SpanRecord{.name = frame.name,
                           .tid = this_thread_profile_id(),
                           .depth = static_cast<std::uint32_t>(
                               t_span_stack.size()),
                           .start_ns = frame.start_ns,
                           .dur_ns = dur_ns,
                           .self_ns = dur_ns - frame.child_ns,
                           .sim_t_ns = frame.sim_t_ns,
                           .has_sim = frame.has_sim});
}

void write_chrome_trace(std::ostream& out, const Profiler& profiler,
                        std::string_view run_name) {
  std::vector<Profiler::SpanRecord> spans = profiler.records();
  // chrome://tracing accepts any order, but a time-sorted file diffs and
  // reads better.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Profiler::SpanRecord& a,
                      const Profiler::SpanRecord& b) {
                     return a.start_ns < b.start_ns;
                   });

  // Chrome trace ts/dur are fractional microseconds, rendered "%.3f".
  const auto us = [](std::int64_t ns) {
    return static_cast<double>(ns) / 1e3;
  };
  std::string line;
  {
    core::JsonWriter w(line);
    w.begin_object()
        .kv("displayTimeUnit", "ms")
        .key("otherData")
        .begin_object()
        .kv("run", run_name)
        .kv("span_count", static_cast<std::int64_t>(spans.size()))
        .kv("dropped_spans", static_cast<std::int64_t>(profiler.dropped()))
        .end_object();
  }
  line += ",\"traceEvents\":[";
  {
    core::JsonWriter w(line);
    w.begin_object()
        .kv("ph", "M")
        .kv("pid", 0)
        .kv("tid", 0)
        .kv("name", "process_name")
        .key("args")
        .begin_object()
        .kv("name", run_name)
        .end_object()
        .end_object();
  }
  out << line;
  // Spans stream one event at a time through a reused buffer — a trace
  // can hold hundreds of thousands of records.
  for (const Profiler::SpanRecord& s : spans) {
    line.assign(",\n");
    core::JsonWriter w(line);
    w.begin_object()
        .kv("name", s.name)
        .kv("cat", "span")
        .kv("ph", "X")
        .kv("pid", 0)
        .kv("tid", static_cast<std::int64_t>(s.tid))
        .key("ts")
        .value_fixed(us(s.start_ns), 3)
        .key("dur")
        .value_fixed(us(s.dur_ns), 3)
        .key("args")
        .begin_object()
        .key("self_us")
        .value_fixed(us(s.self_ns), 3)
        .kv("depth", static_cast<std::int64_t>(s.depth));
    if (s.has_sim) w.kv("sim_t_ns", s.sim_t_ns);
    w.end_object().end_object();
    out << line;
  }
  out << "]}\n";
}

core::Status write_chrome_trace_file(const std::string& path,
                                     const Profiler& profiler,
                                     std::string_view run_name) {
  std::ofstream out(path);
  if (!out) {
    return core::Error::io("cannot open profile output path: " + path);
  }
  write_chrome_trace(out, profiler, run_name);
  out.flush();
  if (!out) {
    return core::Error::io("failed writing profile output: " + path);
  }
  return {};
}

}  // namespace mntp::obs
