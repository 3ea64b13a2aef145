// Structured trace events and pluggable sinks.
//
// A trace event is a simulation-time-stamped record — (t, category, name,
// key/value fields) — the qualitative complement of the metrics registry:
// metrics answer "how many / how long", events answer "what happened at
// t=...". Categories group related emitters ("sim", "net", "ntp",
// "mntp", "tuner"); names identify the event within the category
// ("round", "deferral", "timeout").
//
// Sinks are pluggable and non-owning: the Telemetry context fans each
// event out to every attached sink. Provided sinks:
//
//   * RingBufferSink — bounded in-memory capture, oldest-evicted; the
//     default for tests and for bench run reports (serialized one
//     to_jsonl_line per event, see obs/report.h for the schema);
//   * NullSink       — discards everything (overhead measurement).
//
// obs/streaming.h adds StreamingTraceEventSink, which writes the events
// to a chunked JSONL file as they arrive.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/ring_buffer.h"
#include "core/time.h"

namespace mntp::obs {

/// Field values keep JSON's scalar types; int64 covers counts and ns.
using FieldValue = std::variant<std::int64_t, double, std::string, bool>;

struct Field {
  std::string key;
  FieldValue value;
};

struct TraceEvent {
  core::TimePoint t;  ///< simulation time of the occurrence
  std::string category;
  std::string name;
  std::vector<Field> fields;
};

/// JSON string escaping for the exporters (quotes, backslashes, control
/// characters; non-ASCII passes through as UTF-8).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Render one event as a single-line JSON object:
/// {"type":"event","t_ns":...,"category":"..","name":"..","fields":{..}}
[[nodiscard]] std::string to_jsonl_line(const TraceEvent& e);

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
  virtual void flush() {}
};

/// Bounded in-memory capture; evicts oldest when full.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 1 << 16) : events_(capacity) {}

  void on_event(const TraceEvent& event) override {
    events_.push(event);
    ++total_;
  }

  /// Retained events, oldest first.
  [[nodiscard]] const core::RingBuffer<TraceEvent>& events() const {
    return events_;
  }
  /// Events ever offered, including evicted ones.
  [[nodiscard]] std::uint64_t total_events() const { return total_; }
  [[nodiscard]] std::uint64_t evicted() const {
    return total_ - events_.size();
  }
  void clear() {
    events_.clear();
    total_ = 0;
  }

 private:
  core::RingBuffer<TraceEvent> events_;
  std::uint64_t total_ = 0;
};

/// Discards every event; used to measure pure emission overhead.
class NullSink final : public TraceSink {
 public:
  void on_event(const TraceEvent&) override {}
};

}  // namespace mntp::obs
