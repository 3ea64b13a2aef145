// mntp-inspect: terminal summarizer for the observability artifacts the
// bench harness writes — JSONL run reports (--telemetry-out, schema in
// src/obs/report.h), Chrome trace-event span profiles (--profile-out),
// query traces (--query-trace-out), timelines (--timeline-out) and
// perf-suite baselines (BENCH_results.json).
//
//   mntp-inspect run.jsonl profile.json BENCH_results.json
//
// The file kind is detected from content, not extension. For run reports
// the tool prints the metric registry as tables and the span-profile
// aggregates when present. For timelines it flags step changes: deltas
// more than --sigma (default 4) standard deviations from the series' own
// delta noise.
//
// Exit code: 0 on success (step changes are informational), 1 when any
// input cannot be read or parsed, 2 on usage errors and on an empty or
// cut-off artifact (a last line that is not JSON: a crashed producer).
//
// The `diff` subcommand (src/obs/diff.h) compares two artifacts of the
// same kind and has its own exit contract: 0 identical within
// tolerance, 1 significant regression, 2 error. On a bench pair it is
// the perf gate: `--budget A:B:PCT` (repeatable) adds within-candidate
// budgets, and `--write-delta PATH` writes the BENCH_pr*.json record.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/format.h"
#include "core/json.h"
#include "core/stats.h"
#include "core/table.h"
#include "obs/diff.h"

using mntp::core::Json;

namespace {

struct Options {
  double sigma = 4.0;        // step-change threshold, in delta sigmas
  std::size_t max_rows = 20; // cap for step-change listings
  bool explain = false;      // print per-query timelines for query traces
  long long query_id = -1;   // explain a single query (-1: first --limit)
  std::size_t limit = 10;    // timelines shown in explain mode
  bool timeline = false;     // `timeline` subcommand (explicit mode)
  std::string series;        // timeline: only series containing this
  std::size_t width = 64;    // timeline: sparkline columns
  bool diff = false;         // `diff` subcommand (cross-run comparison)
  bool json = false;         // diff: machine output instead of tables
  std::string write_delta;   // diff: BENCH_pr*.json record path (bench)
  mntp::obs::DiffOptions diff_opt;  // tolerance/floor/divergence/budgets
};

/// Checked numeric flag parsing: the whole argument must be a number
/// (strtod/strtoll consume it completely), otherwise the caller prints
/// usage and exits 2 — `--sigma foo` must be a loud usage error, not a
/// silent 0.
bool parse_double_arg(const char* s, double& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !std::isfinite(v)) {
    return false;
  }
  out = v;
  return true;
}

bool parse_ll_arg(const char* s, long long& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_size_arg(const char* s, std::size_t& out) {
  long long v = 0;
  if (!parse_ll_arg(s, v) || v < 0) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

std::string format_labels(const Json& labels) {
  std::string out;
  for (const auto& [key, value] : labels.as_object()) {
    if (!out.empty()) out += ",";
    out += key + "=" + value.as_string();
  }
  return out;
}

/// Forward compatibility: an artifact stamped with a schema_version this
/// tool does not know is rendered best-effort (unknown keys are ignored,
/// absent keys read as neutral defaults) behind a warning, instead of
/// hard-failing — a newer producer should not brick an older inspector.
/// Absent / zero versions (pre-versioning artifacts) stay silent.
void warn_unknown_schema(const std::string& path, const Json& meta) {
  const long long version = meta["schema_version"].as_int();
  if (version != 0 && version != 1) {
    std::fprintf(stderr,
                 "mntp-inspect: %s: unknown schema_version %lld (this build "
                 "understands 1); rendering best-effort\n",
                 path.c_str(), version);
  }
}

// ---------------------------------------------------------------- report

struct SpanRow {
  double count = 0, total_us = 0, self_us = 0, p50_us = 0, min_us = 0,
         max_us = 0;
};

int inspect_report(const std::string& path, const std::vector<Json>& lines) {
  std::vector<Json> metrics;
  std::map<std::string, SpanRow> spans;  // from profile.span.*

  for (const Json& line : lines) {
    const std::string& type = line["type"].as_string();
    if (type == "meta") {
      std::printf("run report: %s\n  run=%s  sim_end=%.1fs  %lld metrics\n",
                  path.c_str(), line["run"].as_string().c_str(),
                  static_cast<double>(line["sim_end_ns"].as_int()) / 1e9,
                  static_cast<long long>(line["metric_count"].as_int()));
    } else if (type == "metric") {
      const std::string& name = line["name"].as_string();
      if (name.rfind("profile.span.", 0) == 0) {
        SpanRow& row = spans[line["labels"]["span"].as_string()];
        const double v = line["value"].as_double();
        const std::string field = name.substr(std::strlen("profile.span."));
        if (field == "count") row.count = v;
        else if (field == "total_wall_us") row.total_us = v;
        else if (field == "self_wall_us") row.self_us = v;
        else if (field == "p50_us") row.p50_us = v;
        else if (field == "min_us") row.min_us = v;
        else if (field == "max_us") row.max_us = v;
      } else {
        metrics.push_back(line);
      }
    }
  }

  // Metric tables: scalar metrics (counters/gauges) then histograms. The
  // obs.* family (the query-trace accounting — see
  // src/obs/metric_names.h) gets its own table instead of interleaving
  // with the run's real metrics.
  mntp::core::TextTable scalars({"metric", "labels", "kind", "value"});
  mntp::core::TextTable obs_table({"metric", "kind", "value"});
  mntp::core::TextTable histograms(
      {"histogram", "labels", "count", "p50", "p90", "p99", "max"});
  for (const Json& m : metrics) {
    const std::string& kind = m["kind"].as_string();
    if (kind != "histogram" && m["name"].as_string().rfind("obs.", 0) == 0) {
      obs_table.add_row({m["name"].as_string(), kind,
                         mntp::core::fmt_double(m["value"].as_double())});
      continue;
    }
    if (kind == "histogram") {
      histograms.add_row({m["name"].as_string(), format_labels(m["labels"]),
                          mntp::core::strformat("%lld", static_cast<long long>(
                                                            m["count"].as_int())),
                          mntp::core::fmt_double(m["p50"].as_double()),
                          mntp::core::fmt_double(m["p90"].as_double()),
                          mntp::core::fmt_double(m["p99"].as_double()),
                          mntp::core::fmt_double(m["max"].as_double())});
    } else {
      scalars.add_row({m["name"].as_string(), format_labels(m["labels"]), kind,
                       mntp::core::fmt_double(m["value"].as_double())});
    }
  }
  if (scalars.rows() > 0) {
    std::printf("\n%s\n", scalars.render().c_str());
  }
  if (histograms.rows() > 0) {
    std::printf("%s\n", histograms.render().c_str());
  }
  if (obs_table.rows() > 0) {
    std::printf("telemetry self-accounting (obs.* metrics):\n%s\n",
                obs_table.render().c_str());
  }

  if (!spans.empty()) {
    mntp::core::TextTable table({"span", "count", "total_ms", "self_ms",
                                 "p50_us", "max_us"});
    for (const auto& [name, row] : spans) {
      table.add_row({name, mntp::core::strformat("%.0f", row.count),
                     mntp::core::fmt_double(row.total_us / 1e3),
                     mntp::core::fmt_double(row.self_us / 1e3),
                     mntp::core::fmt_double(row.p50_us),
                     mntp::core::fmt_double(row.max_us)});
    }
    std::printf("span profile (from profile.span.* gauges):\n%s\n",
                table.render().c_str());
  }

  return 0;
}

// ----------------------------------------------------------- query trace

/// One decoded {"type":"query"} line.
struct TraceRow {
  long long id = 0;
  long long parent = 0;
  std::string kind;
  double start_s = 0.0;
  Json stages;  // array
};

std::string format_stage_fields(const Json& fields) {
  std::string out;
  for (const auto& [key, value] : fields.as_object()) {
    if (!out.empty()) out += "  ";
    out += key + "=";
    if (value.is_string()) {
      out += value.as_string();
    } else if (value.is_bool()) {
      out += value.as_bool() ? "true" : "false";
    } else if (value.is_int()) {
      out += mntp::core::strformat("%lld",
                                   static_cast<long long>(value.as_int()));
    } else {
      out += mntp::core::strformat("%g", value.as_double());
    }
  }
  return out;
}

/// The terminal ("verdict") stage of a query, or a null Json.
const Json* verdict_stage(const TraceRow& q) {
  const auto& stages = q.stages.as_array();
  for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
    if ((*it)["stage"].as_string() == "verdict") return &*it;
  }
  return nullptr;
}

void print_timeline(const TraceRow& q,
                    const std::vector<const TraceRow*>& children,
                    int indent) {
  const Json* verdict = verdict_stage(q);
  std::printf("%*squery #%lld (%s) start t=%.3fs  verdict=%s\n", indent, "",
              q.id, q.kind.c_str(), q.start_s,
              verdict ? (*verdict)["reason"].as_string().c_str() : "none");
  for (const Json& s : q.stages.as_array()) {
    const double dt =
        static_cast<double>(s["t_ns"].as_int()) / 1e9 - q.start_s;
    const std::string& reason = s["reason"].as_string();
    std::printf("%*s  +%8.3fs  %-16s %-18s %s\n", indent, "", dt,
                s["stage"].as_string().c_str(),
                reason == "none" ? "" : reason.c_str(),
                format_stage_fields(s["fields"]).c_str());
  }
  for (const TraceRow* child : children) {
    print_timeline(*child, {}, indent + 4);
  }
}

int inspect_query_trace(const std::string& path,
                        const std::vector<Json>& lines,
                        const Options& opt) {
  std::vector<TraceRow> queries;
  std::string run;
  double sim_end_s = 0.0;
  long long dropped = 0;
  bool sampled = false;       // meta carried a "sampling" block
  long long sample_n = 1, sample_seed = 0;
  long long minted = 0, kept = 0, sampled_out = 0;
  for (const Json& line : lines) {
    const std::string& type = line["type"].as_string();
    if (type == "meta") {
      run = line["run"].as_string();
      sim_end_s = static_cast<double>(line["sim_end_ns"].as_int()) / 1e9;
      dropped = line["dropped"].as_int();
      if (line.has("sampling")) {
        const Json& s = line["sampling"];
        sampled = true;
        sample_n = s["sample_one_in_n"].as_int();
        sample_seed = s["seed"].as_int();
        minted = s["minted"].as_int();
        kept = s["kept"].as_int();
        sampled_out = s["sampled_out"].as_int();
      }
    } else if (type == "query") {
      TraceRow q;
      q.id = line["id"].as_int();
      q.parent = line["parent"].as_int();
      q.kind = line["kind"].as_string();
      q.start_s = static_cast<double>(line["start_ns"].as_int()) / 1e9;
      q.stages = line["stages"];
      queries.push_back(std::move(q));
    }
  }
  std::printf("query trace: %s\n  run=%s  sim_end=%.1fs  %zu queries stored"
              " (%lld dropped)\n",
              path.c_str(), run.c_str(), sim_end_s, queries.size(), dropped);
  if (sampled) {
    std::printf("  sampling: 1-in-%lld (seed %lld)  minted=%lld kept=%lld "
                "sampled_out=%lld\n",
                sample_n, sample_seed, minted, kept, sampled_out);
    // Conservation: every minted id ends exactly one way. A mismatch
    // means the producer lost track of ids — worth shouting about, but
    // the stored traces still render fine, so it stays informational.
    if (minted != kept + sampled_out + dropped) {
      std::printf("  WARNING: accounting mismatch: minted %lld != kept %lld "
                  "+ sampled_out %lld + dropped %lld\n",
                  minted, kept, sampled_out, dropped);
    }
    if (static_cast<long long>(queries.size()) != kept) {
      std::printf("  WARNING: %zu query lines stored but meta claims %lld "
                  "kept\n",
                  queries.size(), kept);
    }
  }

  // Aggregate causation: every query's fate, bucketed by kind and
  // verdict reason; for round verdicts also by decision phase, so the
  // table reconciles against the mntp.sample outcome counters.
  std::map<std::string, std::size_t> verdicts;       // "kind/reason"
  std::map<std::string, std::size_t> round_phases;   // "phase/reason"
  std::map<std::string, std::size_t> loss_by_hop;    // hop name
  for (const TraceRow& q : queries) {
    const Json* verdict = verdict_stage(q);
    const std::string reason =
        verdict ? (*verdict)["reason"].as_string() : "unfinished";
    ++verdicts[q.kind + "/" + reason];
    if (q.kind == "round" && verdict && (*verdict)["fields"].has("phase")) {
      ++round_phases[(*verdict)["fields"]["phase"].as_string() + "/" + reason];
    }
    for (const Json& s : q.stages.as_array()) {
      if (s["stage"].as_string() == "loss") {
        // The link walker records the hop index as an integer; channel
        // models may name hops with a string instead.
        const Json& hop = s["fields"]["hop"];
        ++loss_by_hop[hop.is_string()
                          ? hop.as_string()
                          : std::to_string(static_cast<long long>(hop.as_int()))];
      }
    }
  }
  if (!verdicts.empty()) {
    mntp::core::TextTable table({"kind", "verdict", "count"});
    for (const auto& [key, n] : verdicts) {
      const auto slash = key.find('/');
      table.add_row({key.substr(0, slash), key.substr(slash + 1),
                     mntp::core::fmt_count(n)});
    }
    std::printf("\ncausation (verdicts by kind and reason):\n%s\n",
                table.render().c_str());
  }
  if (!round_phases.empty()) {
    mntp::core::TextTable table({"phase", "verdict", "count"});
    for (const auto& [key, n] : round_phases) {
      const auto slash = key.find('/');
      table.add_row({key.substr(0, slash), key.substr(slash + 1),
                     mntp::core::fmt_count(n)});
    }
    std::printf("round verdicts by decision phase:\n%s\n",
                table.render().c_str());
  }
  if (!loss_by_hop.empty()) {
    mntp::core::TextTable table({"hop", "losses"});
    for (const auto& [hop, n] : loss_by_hop) {
      table.add_row({hop, mntp::core::fmt_count(n)});
    }
    std::printf("packet loss by hop:\n%s\n", table.render().c_str());
  }

  if (!opt.explain) return 0;

  // Per-query timelines: roots (rounds and orphan exchanges) with their
  // child exchanges nested underneath.
  std::map<long long, std::vector<const TraceRow*>> children;
  for (const TraceRow& q : queries) {
    if (q.parent != 0) children[q.parent].push_back(&q);
  }
  std::size_t shown = 0;
  bool found = false;
  for (const TraceRow& q : queries) {
    if (opt.query_id >= 0) {
      if (q.id != opt.query_id) continue;
      found = true;
    } else {
      if (q.parent != 0) continue;  // roots only in the default listing
      if (shown >= opt.limit) {
        std::printf("  ... %s\n", "more queries elided (raise --limit or "
                                  "pick one with --query <id>)");
        break;
      }
    }
    std::printf("\n");
    auto it = children.find(q.id);
    print_timeline(q, it == children.end() ? std::vector<const TraceRow*>{}
                                           : it->second,
                   2);
    ++shown;
    if (opt.query_id >= 0) break;
  }
  if (opt.query_id >= 0 && !found) {
    std::fprintf(stderr, "mntp-inspect: query #%lld not in %s\n",
                 opt.query_id, path.c_str());
    return 1;
  }
  return 0;
}

// --------------------------------------------------------------- profile

int inspect_profile(const std::string& path, const Json& doc) {
  const Json& events = doc["traceEvents"];
  std::string run_name;
  struct Agg {
    std::size_t count = 0;
    double total_us = 0, self_us = 0, min_us = 0, max_us = 0;
    bool has_range = true;  // false once an event lacks min/max
  };
  std::map<std::string, Agg> by_name;
  for (const Json& e : events.as_array()) {
    const std::string& ph = e["ph"].as_string();
    if (ph == "M") {
      if (e["name"].as_string() == "process_name") {
        run_name = e["args"]["name"].as_string();
      }
      continue;
    }
    if (ph != "X") continue;
    // An aggregate event (--profile-out) stands for agg_count spans and
    // carries their range in args; a plain event is one span.
    const Json& args = e["args"];
    const double dur = e["dur"].as_double();
    const bool aggregate = args.has("agg_count");
    const bool has_range = !aggregate || args.has("min_us");
    const double lo = aggregate ? args["min_us"].as_double() : dur;
    const double hi = aggregate ? args["max_us"].as_double() : dur;
    Agg& agg = by_name[e["name"].as_string()];
    agg.min_us = agg.count == 0 ? lo : std::min(agg.min_us, lo);
    agg.max_us = agg.count == 0 ? hi : std::max(agg.max_us, hi);
    agg.has_range = agg.has_range && has_range;
    agg.count +=
        aggregate ? static_cast<std::size_t>(args["agg_count"].as_int()) : 1;
    agg.total_us += dur;
    agg.self_us += args["self_us"].as_double();
  }
  std::printf("span profile: %s\n  run=%s  %zu span names\n", path.c_str(),
              run_name.c_str(), by_name.size());
  // Hottest first — total wall time is the question a profile answers.
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  mntp::core::TextTable table({"span", "count", "total_ms", "self_ms",
                               "mean_us", "min_us", "max_us"});
  for (const auto& [name, agg] : rows) {
    table.add_row({name, mntp::core::fmt_count(agg.count),
                   mntp::core::fmt_double(agg.total_us / 1e3),
                   mntp::core::fmt_double(agg.self_us / 1e3),
                   mntp::core::fmt_double(agg.total_us /
                                          static_cast<double>(agg.count)),
                   agg.has_range ? mntp::core::fmt_double(agg.min_us) : "-",
                   agg.has_range ? mntp::core::fmt_double(agg.max_us) : "-"});
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}

// ----------------------------------------------------------------- bench

int inspect_bench(const std::string& path, const Json& doc) {
  const Json& env = doc["environment"];
  std::printf("perf-suite results: %s\n  reps=%lld warmup=%lld  compiler=%s "
              "build=%s threads=%lld\n",
              path.c_str(), static_cast<long long>(doc["reps"].as_int()),
              static_cast<long long>(doc["warmup"].as_int()),
              env["compiler"].as_string().c_str(),
              env["build_type"].as_string().c_str(),
              static_cast<long long>(env["hardware_threads"].as_int()));
  mntp::core::TextTable table(
      {"workload", "median_us", "mad_us", "p95_us", "min_us", "max_us"});
  for (const Json& w : doc["workloads"].as_array()) {
    table.add_row({w["name"].as_string(),
                   mntp::core::fmt_double(w["median_us"].as_double(), 1),
                   mntp::core::fmt_double(w["mad_us"].as_double(), 1),
                   mntp::core::fmt_double(w["p95_us"].as_double(), 1),
                   mntp::core::fmt_double(w["min_us"].as_double(), 1),
                   mntp::core::fmt_double(w["max_us"].as_double(), 1)});
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}

// -------------------------------------------------------------- timeline

/// One decoded {"type":"series"} line of a timeline artifact.
struct SeriesRow {
  std::string name;
  std::string labels;
  std::string probe;
  long long samples = 0;
  long long stride = 1;
  std::vector<double> t_s;     // per point: time of last folded sample
  std::vector<double> mean;
  std::vector<double> min;
  std::vector<double> max;
  double last = 0.0;
};

/// Resample `mean` into `width` buckets and render one sparkline cell per
/// bucket, scaled to the series' own min..max.
std::string sparkline(const SeriesRow& s, std::size_t width) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (s.mean.empty()) return "";
  double lo = s.mean.front(), hi = s.mean.front();
  for (double v : s.mean) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const std::size_t cols = std::min(width, s.mean.size());
  std::string out;
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t begin = c * s.mean.size() / cols;
    const std::size_t end =
        std::max(begin + 1, (c + 1) * s.mean.size() / cols);
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) acc += s.mean[i];
    const double v = acc / static_cast<double>(end - begin);
    const double norm = hi > lo ? (v - lo) / (hi - lo) : 0.5;
    const int level =
        std::clamp(static_cast<int>(norm * 8.0), 0, 7);
    out += kLevels[level];
  }
  return out;
}

int inspect_timeline(const std::string& path,
                     const std::vector<Json>& lines,
                     const Options& opt) {
  std::string run;
  double sim_end_s = 0.0, cadence_s = 0.0;
  long long declared_series = 0;
  std::vector<SeriesRow> series;
  for (const Json& line : lines) {
    const std::string& type = line["type"].as_string();
    if (type == "meta") {
      run = line["run"].as_string();
      sim_end_s = static_cast<double>(line["sim_end_ns"].as_int()) / 1e9;
      cadence_s = static_cast<double>(line["cadence_ns"].as_int()) / 1e9;
      declared_series = line["series_count"].as_int();
    } else if (type == "series") {
      SeriesRow s;
      s.name = line["name"].as_string();
      s.labels = format_labels(line["labels"]);
      s.probe = line["probe"].as_string();
      s.samples = line["samples"].as_int();
      s.stride = line["stride"].as_int();
      for (const Json& p : line["points"].as_array()) {
        const auto& a = p.as_array();
        s.t_s.push_back(static_cast<double>(a[0].as_int()) / 1e9);
        s.min.push_back(a[1].as_double());
        s.mean.push_back(a[2].as_double());
        s.max.push_back(a[3].as_double());
        s.last = a[4].as_double();
      }
      series.push_back(std::move(s));
    }
  }
  std::printf("timeline: %s\n  run=%s  sim_end=%.1fs  cadence=%.3fs  "
              "%zu series (%lld declared)\n",
              path.c_str(), run.c_str(), sim_end_s, cadence_s, series.size(),
              declared_series);

  std::size_t shown = 0;
  for (const SeriesRow& s : series) {
    if (!opt.series.empty() &&
        s.name.find(opt.series) == std::string::npos) {
      continue;
    }
    ++shown;
    double lo = s.min.empty() ? 0.0 : s.min.front();
    double hi = s.max.empty() ? 0.0 : s.max.front();
    double acc = 0.0;
    for (std::size_t i = 0; i < s.mean.size(); ++i) {
      lo = std::min(lo, s.min[i]);
      hi = std::max(hi, s.max[i]);
      acc += s.mean[i];
    }
    const double grand_mean =
        s.mean.empty() ? 0.0 : acc / static_cast<double>(s.mean.size());
    std::printf("\n%s%s%s  (%s, %lld samples, stride %lld, %zu points)\n",
                s.name.c_str(), s.labels.empty() ? "" : "  ",
                s.labels.c_str(), s.probe.c_str(), s.samples, s.stride,
                s.t_s.size());
    std::printf("  min %s  mean %s  max %s  last %s\n",
                mntp::core::fmt_double(lo).c_str(),
                mntp::core::fmt_double(grand_mean).c_str(),
                mntp::core::fmt_double(hi).c_str(),
                mntp::core::fmt_double(s.last).c_str());
    if (!s.mean.empty()) {
      std::printf("  %s  [%.0fs .. %.0fs]\n",
                  sparkline(s, opt.width).c_str(), s.t_s.front(),
                  s.t_s.back());
    }
    // Step changes: consecutive-point deltas that stand out against the
    // series' own delta noise by more than --sigma. Constant and
    // smoothly-trending series flag nothing.
    if (s.mean.size() >= 8) {
      std::vector<double> deltas(s.mean.size() - 1);
      for (std::size_t i = 1; i < s.mean.size(); ++i) {
        deltas[i - 1] = s.mean[i] - s.mean[i - 1];
      }
      const double sd = mntp::core::summarize(deltas).stddev;
      std::size_t flagged = 0, listed = 0;
      for (std::size_t i = 0; i < deltas.size(); ++i) {
        if (sd <= 0.0 || std::fabs(deltas[i]) <= opt.sigma * sd) continue;
        if (flagged == 0) std::printf("  step changes (|delta| > %.1f sigma):\n", opt.sigma);
        ++flagged;
        if (listed < opt.max_rows) {
          ++listed;
          std::printf("    t=%9.1fs  %+10.3f -> %+10.3f  (delta %+.3f, "
                      "%.1f sigma)\n",
                      s.t_s[i + 1], s.mean[i], s.mean[i + 1], deltas[i],
                      std::fabs(deltas[i]) / sd);
        }
      }
      if (flagged > listed) std::printf("    ... %zu more\n", flagged - listed);
    }
  }
  if (shown == 0 && !opt.series.empty()) {
    std::fprintf(stderr, "mntp-inspect: no series matching '%s' in %s\n",
                 opt.series.c_str(), path.c_str());
    return 1;
  }
  return 0;
}

// -------------------------------------------------------------- dispatch

int inspect_file(const std::string& path, const Options& opt) {
  using mntp::obs::DiffKind;
  auto read = mntp::obs::read_artifact(path);
  if (!read.ok()) {
    // An empty or cut-off file (a crashed producer) is exit 2, distinct
    // from an unreadable, corrupt or unrecognized one (exit 1).
    std::fprintf(stderr, "mntp-inspect: %s\n", read.error().message.c_str());
    return read.error().code == mntp::core::Error::Code::kMalformedPacket ? 2
                                                                         : 1;
  }
  const mntp::obs::ArtifactFile& file = read.value();
  if (opt.timeline && file.kind != DiffKind::kTimeline) {
    std::fprintf(stderr, "mntp-inspect: %s: not a timeline artifact\n",
                 path.c_str());
    return 1;
  }
  if (file.kind != DiffKind::kProfile) warn_unknown_schema(path, file.doc);
  switch (file.kind) {
    case DiffKind::kProfile: return inspect_profile(path, file.doc);
    case DiffKind::kBench: return inspect_bench(path, file.doc);
    case DiffKind::kReport: return inspect_report(path, file.lines);
    case DiffKind::kQueryTrace:
      return inspect_query_trace(path, file.lines, opt);
    case DiffKind::kTimeline: return inspect_timeline(path, file.lines, opt);
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> paths;
  // Every numeric flag goes through checked parsing: a value that is
  // not entirely a number ("foo", "12x", "") is a usage error (exit 2),
  // never a silent zero.
  const auto bad_value = [](const std::string& flag, const char* value) {
    std::fprintf(stderr,
                 "mntp-inspect: %s needs a numeric value, got '%s'\n",
                 flag.c_str(), value == nullptr ? "" : value);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Split "--flag=value" once so each numeric flag has a single
    // parse-and-validate path for both spellings.
    std::string flag = arg;
    const char* inline_value = nullptr;
    if (arg.rfind("--", 0) == 0) {
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        flag = arg.substr(0, eq);
        inline_value = argv[i] + eq + 1;
      }
    }
    const auto take_value = [&](const char*& out) {
      if (inline_value != nullptr) {
        out = inline_value;
        return true;
      }
      if (i + 1 < argc) {
        out = argv[++i];
        return true;
      }
      return false;
    };
    const char* value = nullptr;
    if (arg == "explain" && paths.empty() && !opt.explain && !opt.timeline &&
        !opt.diff) {
      // Subcommand: per-query timelines on top of the causation tables.
      opt.explain = true;
    } else if (arg == "timeline" && paths.empty() && !opt.timeline &&
               !opt.explain && !opt.diff) {
      // Subcommand: explicit timeline mode (the artifact kind is also
      // auto-detected; the subcommand exists for --series/--width
      // discoverability and to reject non-timeline inputs).
      opt.timeline = true;
    } else if (arg == "diff" && paths.empty() && !opt.diff && !opt.explain &&
               !opt.timeline) {
      // Subcommand: cross-run diff of two artifacts of the same kind
      // (src/obs/diff.h) with its own 0/1/2 exit-code contract.
      opt.diff = true;
    } else if (flag == "--json") {
      opt.json = true;
    } else if (flag == "--series") {
      if (!take_value(value)) return bad_value(flag, value);
      opt.series = value;
    } else if (flag == "--width") {
      if (!take_value(value) || !parse_size_arg(value, opt.width)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--sigma") {
      if (!take_value(value) || !parse_double_arg(value, opt.sigma)) {
        return bad_value(flag, value);
      }
      opt.diff_opt.sigma = opt.sigma;
    } else if (flag == "--query") {
      if (!take_value(value) || !parse_ll_arg(value, opt.query_id)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--limit") {
      if (!take_value(value) || !parse_size_arg(value, opt.limit)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--tolerance") {
      if (!take_value(value) ||
          !parse_double_arg(value, opt.diff_opt.tolerance)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--abs-floor-us") {
      if (!take_value(value) ||
          !parse_double_arg(value, opt.diff_opt.abs_floor_us)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--divergence") {
      if (!take_value(value) ||
          !parse_double_arg(value, opt.diff_opt.divergence)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--top") {
      if (!take_value(value) || !parse_size_arg(value, opt.diff_opt.top)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--budget") {
      if (!take_value(value)) return bad_value(flag, value);
      auto budget = mntp::obs::parse_bench_budget(value);
      if (!budget.ok()) {
        std::fprintf(stderr, "mntp-inspect: --budget: %s\n",
                     budget.error().message.c_str());
        return 2;
      }
      opt.diff_opt.budgets.push_back(budget.value());
    } else if (flag == "--write-delta") {
      if (!take_value(value) || *value == '\0') {
        std::fprintf(stderr, "mntp-inspect: --write-delta needs a path\n");
        return 2;
      }
      opt.write_delta = value;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: mntp-inspect [--sigma N] <file>...\n"
          "       mntp-inspect explain [--query ID] [--limit N] <trace>...\n"
          "       mntp-inspect timeline [--series S] [--width N] <timeline>...\n"
          "       mntp-inspect diff [--json] [--tolerance R] [--abs-floor-us N]\n"
          "                         [--sigma N] [--divergence D] [--top N]\n"
          "                         [--budget A:B:PCT]... [--write-delta PATH]\n"
          "                         <A> <B>\n"
          "  summarizes JSONL run reports, Chrome span profiles,\n"
          "  BENCH_results.json files, query-trace and timeline JSONL (kind\n"
          "  detected from content). `explain` adds per-query causal\n"
          "  timelines for query traces (--query-trace-out artifacts);\n"
          "  `timeline` renders --timeline-out artifacts as per-series\n"
          "  sparklines with step-change flags (--series filters by\n"
          "  substring, --width sets sparkline columns).\n"
          "  `diff` compares two artifacts of the same kind and attributes\n"
          "  the change: bench medians gate at B <= A * (1 + tolerance) +\n"
          "  max(abs-floor, 4 * MAD), profile spans rank by self-time\n"
          "  contribution, report counters get exact-reconciliation classes,\n"
          "  query traces compare verdict shares, timelines score per-series\n"
          "  divergence; --json emits the machine-readable triage record\n"
          "  (kind mntp_diff). Bench pairs only: --budget A:B:PCT fails\n"
          "  unless median(A) <= median(B) * (1 + PCT/100), both medians\n"
          "  taken from the candidate (second) file;\n"
          "  --write-delta PATH writes the before/after record (kind\n"
          "  mntp_perf_delta), even when the gate fails.\n"
          "  artifacts with an unknown schema_version render best-effort\n"
          "  behind a stderr warning (exit stays 0).\n"
          "  exit codes: 0 ok, 1 unreadable/unrecognized artifact,\n"
          "  2 usage or empty/truncated artifact; diff mode: 0 identical\n"
          "  within tolerance, 1 significant regression, 2 error\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mntp-inspect: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (opt.sigma <= 0.0) {
    std::fprintf(stderr, "mntp-inspect: --sigma must be > 0\n");
    return 2;
  }
  if (opt.diff) {
    if (paths.size() != 2) {
      std::fprintf(stderr,
                   "usage: mntp-inspect diff [--json] [--tolerance R] "
                   "[--abs-floor-us N] [--sigma N] [--divergence D] "
                   "[--top N] [--budget A:B:PCT]... [--write-delta PATH] "
                   "<A> <B>\n");
      return 2;
    }
    auto result = mntp::obs::diff_files(paths[0], paths[1], opt.diff_opt);
    if (!result.ok()) {
      std::fprintf(stderr, "mntp-inspect: diff: %s\n",
                   result.error().message.c_str());
      return 2;
    }
    for (const std::string& warning : result.value().warnings) {
      std::fprintf(stderr, "mntp-inspect: warning: %s\n", warning.c_str());
    }
    if (!opt.write_delta.empty()) {
      auto delta = mntp::obs::render_perf_delta(paths[0], paths[1]);
      if (!delta.ok()) {
        std::fprintf(stderr, "mntp-inspect: --write-delta: %s\n",
                     delta.error().message.c_str());
        return 2;
      }
      std::ofstream out(opt.write_delta);
      if (!(out << delta.value()).flush()) {
        std::fprintf(stderr, "mntp-inspect: --write-delta: cannot write %s\n",
                     opt.write_delta.c_str());
        return 2;
      }
    }
    const std::string rendered =
        opt.json ? mntp::obs::render_diff_json(result.value(), opt.diff_opt)
                 : mntp::obs::render_diff_text(result.value(), opt.diff_opt);
    std::fputs(rendered.c_str(), stdout);
    return result.value().exit_code();
  }
  if (opt.json || !opt.diff_opt.budgets.empty() || !opt.write_delta.empty()) {
    std::fprintf(stderr,
                 "mntp-inspect: --json, --budget and --write-delta require "
                 "the diff mode\n");
    return 2;
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: mntp-inspect [explain] [--sigma N] [--query ID] "
                 "[--limit N] <file>...\n");
    return 2;
  }
  if (opt.query_id >= 0 && !opt.explain) {
    std::fprintf(stderr, "mntp-inspect: --query requires the explain mode\n");
    return 2;
  }
  int status = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (i != 0) std::printf("\n");
    status = std::max(status, inspect_file(paths[i], opt));
  }
  return status;
}
