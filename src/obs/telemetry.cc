#include "obs/telemetry.h"

#include <algorithm>

namespace mntp::obs {

void Telemetry::add_sink(TraceSink* sink) {
  if (sink == nullptr) return;
  std::lock_guard<std::mutex> lock(sink_mutex_);
  if (std::find(sinks_.begin(), sinks_.end(), sink) == sinks_.end()) {
    sinks_.push_back(sink);
  }
  has_sinks_.store(!sinks_.empty(), std::memory_order_relaxed);
}

void Telemetry::remove_sink(TraceSink* sink) {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
  has_sinks_.store(!sinks_.empty(), std::memory_order_relaxed);
}

void Telemetry::clear_sinks() {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  sinks_.clear();
  has_sinks_.store(false, std::memory_order_relaxed);
}

void Telemetry::emit(const TraceEvent& event) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(sink_mutex_);
  for (TraceSink* sink : sinks_) sink->on_event(event);
}

void Telemetry::event(core::TimePoint t, std::string_view category,
                      std::string_view name, std::vector<Field> fields) {
  if (!enabled() || !tracing()) return;
  emit(TraceEvent{.t = t,
                  .category = std::string(category),
                  .name = std::string(name),
                  .fields = std::move(fields)});
}

void Telemetry::flush() {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  for (TraceSink* sink : sinks_) sink->flush();
}

void Telemetry::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
  metrics_.set_enabled(enabled);
}

Telemetry*& Telemetry::global_slot() {
  static Telemetry default_instance;
  static Telemetry* current = &default_instance;
  return current;
}

Telemetry& Telemetry::global() { return *global_slot(); }

}  // namespace mntp::obs
