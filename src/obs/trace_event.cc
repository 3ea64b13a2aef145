#include "obs/trace_event.h"

#include "core/json_writer.h"

namespace mntp::obs {

std::string json_escape(std::string_view s) {
  return core::json_escape(s);
}

std::string to_jsonl_line(const TraceEvent& e) {
  std::string out;
  out.reserve(96 + 32 * e.fields.size());
  core::JsonWriter w(out);
  w.begin_object()
      .kv("type", "event")
      .kv("t_ns", e.t.ns())
      .kv("category", e.category)
      .kv("name", e.name)
      .key("fields")
      .begin_object();
  for (const Field& f : e.fields) {
    w.key(f.key);
    std::visit([&](const auto& v) { w.value(v); }, f.value);
  }
  w.end_object().end_object();
  return out;
}

}  // namespace mntp::obs
