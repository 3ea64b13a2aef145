#include "obs/profiler.h"

#include <algorithm>
#include <fstream>

#include "core/json_writer.h"
#include "obs/telemetry.h"

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
};

thread_local std::vector<Frame> t_span_stack;

}  // namespace

Profiler::Profiler() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Profiler::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Profiler::record(std::string_view name, std::int64_t dur_ns,
                      std::int64_t self_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = aggregates_.find(name);
  if (it == aggregates_.end()) {
    it = aggregates_.try_emplace(std::string(name)).first;
  }
  Aggregate& agg = it->second;
  if (agg.count == 0) {
    agg.min_ns = dur_ns;
    agg.max_ns = dur_ns;
  } else {
    agg.min_ns = std::min(agg.min_ns, dur_ns);
    agg.max_ns = std::max(agg.max_ns, dur_ns);
  }
  ++agg.count;
  agg.total_ns += dur_ns;
  agg.self_ns += self_ns;
  agg.dur_us.record(static_cast<double>(dur_ns) / 1e3);
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

std::uint64_t Profiler::total_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [name, agg] : aggregates_) total += agg.count;
  return total;
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
}

Profiler& current_profiler() noexcept { return Telemetry::global().profiler(); }

void ProfileScope::open(const char* name) {
  Profiler& profiler = current_profiler();
  t_span_stack.push_back(Frame{.profiler = &profiler,
                               .name = name,
                               .start_ns = profiler.now_ns(),
                               .child_ns = 0});
}

void ProfileScope::close() {
  const Frame frame = t_span_stack.back();
  t_span_stack.pop_back();
  const std::int64_t dur_ns = frame.profiler->now_ns() - frame.start_ns;
  if (!t_span_stack.empty()) t_span_stack.back().child_ns += dur_ns;
  frame.profiler->record(frame.name, dur_ns, dur_ns - frame.child_ns);
}

void write_chrome_trace(std::ostream& out, const Profiler& profiler,
                        std::string_view run_name) {
  const std::vector<Profiler::SpanStats> spans = profiler.stats();
  std::uint64_t span_count = 0;
  for (const Profiler::SpanStats& s : spans) span_count += s.count;

  // Chrome trace dur/self are fractional microseconds, rendered "%.3f".
  const auto us = [](std::int64_t ns) {
    return static_cast<double>(ns) / 1e3;
  };
  std::string text;
  core::JsonWriter w(text, /*indent=*/1);
  w.begin_object()
      .kv("displayTimeUnit", "ms")
      .key("otherData")
      .begin_object()
      .kv("run", run_name)
      .kv("span_count", span_count)
      .end_object();
  w.key("traceEvents").begin_array();
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
  // One event per span name, laid end to end on synthetic timestamps so
  // trace viewers show non-overlapping bars.
  std::int64_t ts_us = 0;
  for (const Profiler::SpanStats& s : spans) {
    w.begin_object()
        .kv("name", s.name)
        .kv("cat", "aggregate")
        .kv("ph", "X")
        .kv("pid", 1)
        .kv("tid", 1)
        .kv("ts", ts_us)
        .key("dur")
        .value_fixed(us(s.total_ns), 3)
        .key("args")
        .begin_object()
        .key("self_us")
        .value_fixed(us(s.self_ns), 3)
        .kv("depth", 0)
        .kv("agg_count", s.count)
        .key("min_us")
        .value_fixed(us(s.min_ns), 3)
        .key("p50_us")
        .value_fixed(s.p50_ns / 1e3, 3)
        .key("max_us")
        .value_fixed(us(s.max_ns), 3)
        .end_object()
        .end_object();
    ts_us += s.total_ns / 1000 + 1;
  }
  w.end_array().end_object();
  out << text << '\n';
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
