#include "obs/report.h"

#include <cmath>
#include <fstream>
#include <vector>

#include "core/json_writer.h"

namespace mntp::obs {

namespace {

void append_labels(core::JsonWriter& w, const Labels& labels) {
  w.key("labels").begin_object();
  for (const auto& [k, v] : labels) w.kv(k, v);
  w.end_object();
}

}  // namespace

std::string to_jsonl_line(const MetricSnapshot& s) {
  std::string out;
  out.reserve(128);
  core::JsonWriter w(out);
  w.begin_object().kv("type", "metric").kv("kind", kind_name(s.kind));
  w.kv("name", s.name);
  append_labels(w, s.labels);
  if (s.kind != MetricSnapshot::Kind::kHistogram) {
    w.kv("value", s.value).end_object();
    return out;
  }
  w.kv("count", static_cast<std::int64_t>(s.count))
      .kv("sum", s.sum)
      .kv("min", s.min)
      .kv("max", s.max)
      .kv("p50", s.p50)
      .kv("p90", s.p90)
      .kv("p99", s.p99)
      .key("buckets")
      .begin_array();
  for (const auto& [le, count] : s.buckets) {
    w.begin_object().key("le");
    if (std::isinf(le)) {
      w.value("inf");
    } else {
      w.value(le);
    }
    w.kv("count", static_cast<std::int64_t>(count)).end_object();
  }
  w.end_array().end_object();
  return out;
}

void write_run_report(std::ostream& out, const Telemetry& telemetry,
                      const ReportOptions& options) {
  const std::vector<MetricSnapshot> metrics = telemetry.metrics().snapshot();

  std::string meta;
  {
    core::JsonWriter w(meta);
    w.begin_object()
        .kv("type", "meta")
        .kv("schema_version", std::int64_t{1})
        .kv("run", options.run_name)
        .kv("sim_end_ns", options.sim_end.ns())
        .kv("metric_count", static_cast<std::int64_t>(metrics.size()))
        .kv("event_count", std::int64_t{0})
        .end_object();
  }
  out << meta << '\n';

  for (const MetricSnapshot& s : metrics) out << to_jsonl_line(s) << '\n';
}

core::Status write_run_report_file(const std::string& path,
                                   const Telemetry& telemetry,
                                   const ReportOptions& options) {
  std::ofstream out(path);
  if (!out) {
    return core::Error::io("cannot open telemetry report path: " + path);
  }
  write_run_report(out, telemetry, options);
  out.flush();
  if (!out) {
    return core::Error::io("failed writing telemetry report: " + path);
  }
  return {};
}

}  // namespace mntp::obs
