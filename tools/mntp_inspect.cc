// mntp-inspect: terminal summarizer for the observability artifacts the
// bench harness writes — JSONL run reports (--telemetry-out, schema in
// src/obs/report.h), Chrome trace-event span profiles (--profile-out),
// query traces (--query-trace-out), timelines (--timeline-out) and
// perf-suite baselines (BENCH_results.json).
//
//   mntp-inspect run.jsonl profile.json BENCH_results.json
//
// The file kind is detected from content, not extension, and the file is
// read by obs::read_artifact (src/obs/artifact.h), the lenient mode of
// the one reader per kind that the diff uses too; this file only
// renders. For run reports the tool prints the metric registry as
// tables and the span-profile aggregates when present. For timelines it
// flags step changes: deltas more than --sigma (default 4) standard
// deviations from the series' own delta noise.
//
// Exit code: 0 on success (step changes are informational), 1 when any
// input cannot be read or parsed, 2 on usage errors and on an empty or
// cut-off artifact (a last line that is not JSON: a crashed producer).
// Rendering is best-effort: absent keys read as neutral defaults and an
// unknown schema_version only warns.
//
//   mntp-inspect validate FILE...
//
// The `validate` subcommand is the strict mode of the same readers:
// obs::validate_artifact runs every schema rule of the file's kind (the
// five above, `diff --json` records, fleet reports and `diff
// --write-delta` perf deltas). It takes no flags and exits 0 when every
// file is valid, 1 when a rule is broken or a file cannot be read or
// classified, 2 on a usage error or an empty or cut-off file.
//
// The `diff` subcommand (src/obs/diff.h) compares two artifacts of the
// same kind and has its own exit contract: 0 identical within
// tolerance, 1 significant regression, 2 error. On a bench pair it is
// the perf gate: `--budget A:B:PCT` (repeatable) adds within-candidate
// budgets, and `--write-delta PATH` writes the BENCH_pr*.json record.
// Each flag belongs to the modes that read it (see --help); anywhere else
// it exits 2.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/format.h"
#include "core/json.h"
#include "core/stats.h"
#include "core/table.h"
#include "obs/diff.h"

using mntp::core::Json;
using mntp::obs::ArtifactFile;
using mntp::obs::format_labels;
using mntp::obs::TraceQuery;

namespace {

/// The modes (the default summary and one per subcommand), as bits: a
/// flag carries the mask of the modes that read it, and given in any
/// other mode it is a usage error (exit 2), never silently ignored.
enum Mode : unsigned {
  kSummary = 1,
  kExplain = 2,
  kTimeline = 4,
  kDiff = 8,
  kValidate = 16,
};
constexpr unsigned kNotDiff = kSummary | kExplain | kTimeline;
constexpr std::pair<const char*, Mode> kModeNames[] = {
    {"summary", kSummary}, {"explain", kExplain}, {"timeline", kTimeline},
    {"diff", kDiff},       {"validate", kValidate}};

const char* mode_name(unsigned mode) {
  for (const auto& [name, bit] : kModeNames) {
    if (bit == mode) return name;
  }
  return "?";
}

struct Options {
  Mode mode = kSummary;      // set by a leading subcommand
  double sigma = 4.0;        // step-change threshold, in delta sigmas
  std::size_t max_rows = 20; // cap for step-change listings
  long long query_id = -1;   // explain a single query (-1: first --limit)
  std::size_t limit = 10;    // timelines shown in explain mode
  std::string series;        // timeline: only series containing this
  std::size_t width = 64;    // timeline: sparkline columns
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

/// Forward compatibility: an artifact stamped with a schema_version this
/// tool does not know is rendered best-effort (unknown keys are ignored,
/// absent keys read as neutral defaults) behind a warning, instead of
/// hard-failing — a newer producer should not brick an older inspector.
/// Absent / zero versions (pre-versioning artifacts) stay silent.
void warn_unknown_schema(const std::string& path, long long version) {
  if (version != 0 && version != 1) {
    std::fprintf(stderr,
                 "mntp-inspect: %s: unknown schema_version %lld (this build "
                 "understands 1); rendering best-effort\n",
                 path.c_str(), version);
  }
}

double seconds(long long ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------- report

int inspect_report(const std::string& path, const ArtifactFile& file) {
  std::printf("run report: %s\n  run=%s  sim_end=%.1fs  %lld metrics\n",
              path.c_str(), file.run.c_str(), seconds(file.sim_end_ns),
              file.report.metric_count);

  // Metric tables: scalar metrics (counters/gauges) then histograms. The
  // obs.* family (the query-trace accounting — see
  // src/obs/metric_names.h) gets its own table instead of interleaving
  // with the run's real metrics; profile.span.* gauges become the span
  // table.
  mntp::core::TextTable scalars({"metric", "labels", "kind", "value"});
  mntp::core::TextTable obs_table({"metric", "kind", "value"});
  mntp::core::TextTable histograms(
      {"histogram", "labels", "count", "p50", "p90", "p99", "max"});
  // span label -> profile.span.<field> -> value
  std::map<std::string, std::map<std::string, double>> spans;
  for (const mntp::obs::ReportMetric& m : file.report.metrics) {
    if (m.name.rfind("profile.span.", 0) == 0) {
      const auto span = m.labels.find("span");
      spans[span == m.labels.end() ? "" : span->second]
           [m.name.substr(std::strlen("profile.span."))] = m.value;
    } else if (m.kind == "histogram") {
      histograms.add_row({m.name, format_labels(m.labels),
                          mntp::core::strformat("%lld", m.count),
                          mntp::core::fmt_double(m.p50),
                          mntp::core::fmt_double(m.p90),
                          mntp::core::fmt_double(m.p99),
                          mntp::core::fmt_double(m.max)});
    } else if (m.name.rfind("obs.", 0) == 0) {
      obs_table.add_row({m.name, m.kind, mntp::core::fmt_double(m.value)});
    } else {
      scalars.add_row({m.name, format_labels(m.labels), m.kind,
                       mntp::core::fmt_double(m.value)});
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
    for (auto& [name, row] : spans) {  // an absent field reads as 0
      table.add_row({name, mntp::core::strformat("%.0f", row["count"]),
                     mntp::core::fmt_double(row["total_wall_us"] / 1e3),
                     mntp::core::fmt_double(row["self_wall_us"] / 1e3),
                     mntp::core::fmt_double(row["p50_us"]),
                     mntp::core::fmt_double(row["max_us"])});
    }
    std::printf("span profile (from profile.span.* gauges):\n%s\n",
                table.render().c_str());
  }

  return 0;
}

// ----------------------------------------------------------- query trace

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

void print_timeline(const TraceQuery& q,
                    const std::vector<const TraceQuery*>& children,
                    int indent) {
  const double start_s = seconds(q.start_ns);
  const mntp::obs::TraceStage* verdict = q.verdict_stage();
  std::printf("%*squery #%lld (%s) start t=%.3fs  verdict=%s\n", indent, "",
              q.id, q.kind.c_str(), start_s,
              verdict ? verdict->reason.c_str() : "none");
  for (const mntp::obs::TraceStage& s : q.stages) {
    std::printf("%*s  +%8.3fs  %-16s %-18s %s\n", indent, "",
                seconds(s.t_ns) - start_s, s.stage.c_str(),
                s.reason == "none" ? "" : s.reason.c_str(),
                format_stage_fields(s.fields).c_str());
  }
  for (const TraceQuery* child : children) {
    print_timeline(*child, {}, indent + 4);
  }
}

int inspect_query_trace(const std::string& path, const ArtifactFile& file,
                        const Options& opt) {
  const mntp::obs::QueryTraceArtifact& trace = file.trace;
  const std::vector<TraceQuery>& queries = trace.queries;
  std::printf("query trace: %s\n  run=%s  sim_end=%.1fs  %zu queries stored"
              " (%lld dropped)\n",
              path.c_str(), file.run.c_str(), seconds(file.sim_end_ns),
              queries.size(), trace.dropped);
  if (trace.sampled) {
    std::printf("  sampling: 1-in-%lld (seed %llu)  minted=%lld kept=%lld "
                "sampled_out=%lld\n",
                trace.sample_one_in_n,
                static_cast<unsigned long long>(trace.seed), trace.minted,
                trace.kept, trace.sampled_out);
    // Conservation: every minted id ends exactly one way. A mismatch
    // means the producer lost track of ids — worth shouting about, but
    // the stored traces still render fine, so it stays informational.
    if (trace.minted != trace.kept + trace.sampled_out + trace.dropped) {
      std::printf("  WARNING: accounting mismatch: minted %lld != kept %lld "
                  "+ sampled_out %lld + dropped %lld\n",
                  trace.minted, trace.kept, trace.sampled_out, trace.dropped);
    }
    if (static_cast<long long>(queries.size()) != trace.kept) {
      std::printf("  WARNING: %zu query lines stored but meta claims %lld "
                  "kept\n",
                  queries.size(), trace.kept);
    }
  }

  // Aggregate causation: every query's fate, bucketed by kind and
  // verdict reason; for round verdicts also by decision phase, so the
  // table reconciles against the mntp.sample outcome counters.
  std::map<std::string, std::size_t> verdicts;       // "kind/reason"
  std::map<std::string, std::size_t> round_phases;   // "phase/reason"
  std::map<std::string, std::size_t> loss_by_hop;    // hop name
  for (const TraceQuery& q : queries) {
    ++verdicts[q.kind + "/" + q.verdict];
    const mntp::obs::TraceStage* verdict = q.verdict_stage();
    if (q.kind == "round" && verdict && verdict->fields.has("phase")) {
      ++round_phases[verdict->fields["phase"].as_string() + "/" + q.verdict];
    }
    for (const mntp::obs::TraceStage& s : q.stages) {
      if (s.stage == "loss") {
        // The link walker records the hop index as an integer; channel
        // models may name hops with a string instead.
        const Json& hop = s.fields["hop"];
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

  if (opt.mode != kExplain) return 0;

  // Per-query timelines: roots (rounds and orphan exchanges) with their
  // child exchanges nested underneath.
  std::map<long long, std::vector<const TraceQuery*>> children;
  for (const TraceQuery& q : queries) {
    if (q.parent != 0) children[q.parent].push_back(&q);
  }
  std::size_t shown = 0;
  bool found = false;
  for (const TraceQuery& q : queries) {
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
    print_timeline(q, it == children.end() ? std::vector<const TraceQuery*>{}
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

int inspect_profile(const std::string& path, const ArtifactFile& file) {
  const auto& spans = file.profile.spans;
  std::printf("span profile: %s\n  run=%s  %zu span names\n", path.c_str(),
              file.run.c_str(), spans.size());
  // Hottest first — total wall time is the question a profile answers.
  std::vector<std::pair<std::string, mntp::obs::SpanAggregate>> rows(
      spans.begin(), spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  mntp::core::TextTable table({"span", "count", "total_ms", "self_ms",
                               "mean_us", "min_us", "max_us"});
  for (const auto& [name, agg] : rows) {
    table.add_row({name,
                   mntp::core::fmt_count(static_cast<std::size_t>(agg.count)),
                   mntp::core::fmt_double(agg.total_us / 1e3),
                   mntp::core::fmt_double(agg.self_us / 1e3),
                   agg.count > 0.0
                       ? mntp::core::fmt_double(agg.total_us / agg.count)
                       : "-",
                   agg.has_range ? mntp::core::fmt_double(agg.min_us) : "-",
                   agg.has_range ? mntp::core::fmt_double(agg.max_us) : "-"});
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}

// ----------------------------------------------------------------- bench

int inspect_bench(const std::string& path, const ArtifactFile& file) {
  const mntp::obs::BenchArtifact& bench = file.bench;
  const Json& env = bench.environment;
  std::printf("perf-suite results: %s\n  reps=%lld warmup=%lld  compiler=%s "
              "build=%s threads=%lld\n",
              path.c_str(), bench.reps, bench.warmup,
              env["compiler"].as_string().c_str(),
              env["build_type"].as_string().c_str(),
              static_cast<long long>(env["hardware_threads"].as_int()));
  mntp::core::TextTable table(
      {"workload", "median_us", "mad_us", "p95_us", "min_us", "max_us"});
  for (const mntp::obs::BenchWorkload& w : bench.workloads) {
    table.add_row({w.name, mntp::core::fmt_double(w.median_us, 1),
                   mntp::core::fmt_double(w.mad_us, 1),
                   mntp::core::fmt_double(w.p95_us, 1),
                   mntp::core::fmt_double(w.min_us, 1),
                   mntp::core::fmt_double(w.max_us, 1)});
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}

// -------------------------------------------------------------- timeline

/// Resample `mean` into `width` buckets and render one sparkline cell per
/// bucket, scaled to the series' own min..max.
std::string sparkline(const std::vector<double>& mean, std::size_t width) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (mean.empty()) return "";
  const auto [lo, hi] = std::minmax_element(mean.begin(), mean.end());
  const std::size_t cols = std::min(width, mean.size());
  std::string out;
  for (std::size_t c = 0; c < cols; ++c) {
    const double v = mntp::obs::bucket_mean(mean, c, cols);
    const double norm = *hi > *lo ? (v - *lo) / (*hi - *lo) : 0.5;
    out += kLevels[std::clamp(static_cast<int>(norm * 8.0), 0, 7)];
  }
  return out;
}

int inspect_timeline(const std::string& path, const ArtifactFile& file,
                     const Options& opt) {
  const mntp::obs::TimelineArtifact& timeline = file.timeline;
  std::printf("timeline: %s\n  run=%s  sim_end=%.1fs  cadence=%.3fs  "
              "%zu series (%lld declared)\n",
              path.c_str(), file.run.c_str(), seconds(file.sim_end_ns),
              seconds(timeline.cadence_ns), timeline.series.size(),
              timeline.series_count);

  std::size_t shown = 0;
  for (const mntp::obs::TimelineSeries& s : timeline.series) {
    if (!opt.series.empty() &&
        s.name.find(opt.series) == std::string::npos) {
      continue;
    }
    ++shown;
    const double lo =
        s.min.empty() ? 0.0 : *std::min_element(s.min.begin(), s.min.end());
    const double hi =
        s.max.empty() ? 0.0 : *std::max_element(s.max.begin(), s.max.end());
    const double grand_mean =
        s.mean.empty() ? 0.0
                       : std::accumulate(s.mean.begin(), s.mean.end(), 0.0) /
                             static_cast<double>(s.mean.size());
    const std::string labels = format_labels(s.labels);
    std::printf("\n%s%s%s  (%s, %lld samples, stride %lld, %zu points)\n",
                s.name.c_str(), labels.empty() ? "" : "  ", labels.c_str(),
                s.probe.c_str(), s.samples, s.stride, s.t_ns.size());
    std::printf("  min %s  mean %s  max %s  last %s\n",
                mntp::core::fmt_double(lo).c_str(),
                mntp::core::fmt_double(grand_mean).c_str(),
                mntp::core::fmt_double(hi).c_str(),
                mntp::core::fmt_double(s.last).c_str());
    if (!s.mean.empty()) {
      std::printf("  %s  [%.0fs .. %.0fs]\n",
                  sparkline(s.mean, opt.width).c_str(),
                  seconds(s.t_ns.front()), seconds(s.t_ns.back()));
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
                      seconds(s.t_ns[i + 1]), s.mean[i], s.mean[i + 1],
                      deltas[i], std::fabs(deltas[i]) / sd);
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

/// Report a load, decode or validation error: an empty or cut-off file
/// (a crashed producer) is exit 2, distinct from an unreadable, corrupt,
/// unrecognized or invalid one (exit 1).
int report_error(const mntp::core::Error& error) {
  std::fprintf(stderr, "mntp-inspect: %s\n", error.message.c_str());
  return error.code == mntp::core::Error::Code::kMalformedPacket ? 2 : 1;
}

int validate_file(const std::string& path) {
  auto summary = mntp::obs::validate_artifact(path);
  if (!summary.ok()) return report_error(summary.error());
  std::printf("OK: %s: %s\n", path.c_str(), summary.value().c_str());
  return 0;
}

int inspect_file(const std::string& path, const Options& opt) {
  using mntp::obs::ArtifactKind;
  auto read = mntp::obs::read_artifact(path);
  if (!read.ok()) return report_error(read.error());
  const ArtifactFile& file = read.value();
  if (opt.mode == kTimeline && file.kind != ArtifactKind::kTimeline) {
    std::fprintf(stderr, "mntp-inspect: %s: not a timeline artifact\n",
                 path.c_str());
    return 1;
  }
  if (file.kind != ArtifactKind::kProfile) {
    warn_unknown_schema(path, file.schema_version);
  }
  switch (file.kind) {
    case ArtifactKind::kProfile: return inspect_profile(path, file);
    case ArtifactKind::kBench: return inspect_bench(path, file);
    case ArtifactKind::kReport: return inspect_report(path, file);
    case ArtifactKind::kQueryTrace: return inspect_query_trace(path, file, opt);
    case ArtifactKind::kTimeline: return inspect_timeline(path, file, opt);
    case ArtifactKind::kDiff:
    case ArtifactKind::kFleet:
    case ArtifactKind::kPerfDelta:
      break;  // read_artifact decodes none of these
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> paths;
  // Each mode-scoped flag as given, with the modes that read it; checked
  // once the mode is known (a subcommand may follow flags).
  std::vector<std::pair<std::string, unsigned>> scoped;
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
    // A diff threshold: a number >= 0 (a negative one flags a file
    // against itself or turns its gate off).
    const auto threshold = [&](double& out) {
      scoped.emplace_back(flag, kDiff);
      if (!take_value(value) || !parse_double_arg(value, out)) {
        return bad_value(flag, value);
      }
      if (out >= 0.0) return 0;
      std::fprintf(stderr, "mntp-inspect: %s must be >= 0, got '%s'\n",
                   flag.c_str(), value);
      return 2;
    };
    // A subcommand is the first non-flag argument. `explain` adds
    // per-query timelines to the causation tables; `timeline` rejects
    // non-timeline inputs (the kind is auto-detected anyway); `diff`
    // compares two artifacts of one kind and `validate` checks every
    // schema rule, each with its own exit contract.
    const auto subcommand = std::find_if(
        std::begin(kModeNames) + 1, std::end(kModeNames),
        [&arg](const auto& mode) { return arg == mode.first; });
    if (subcommand != std::end(kModeNames) && paths.empty() &&
        opt.mode == kSummary) {
      opt.mode = subcommand->second;
    } else if (flag == "--json") {
      scoped.emplace_back(flag, kDiff);
      opt.json = true;
    } else if (flag == "--series") {
      scoped.emplace_back(flag, kNotDiff);
      if (!take_value(value)) return bad_value(flag, value);
      opt.series = value;
    } else if (flag == "--width") {
      scoped.emplace_back(flag, kNotDiff);
      if (!take_value(value) || !parse_size_arg(value, opt.width)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--sigma") {
      scoped.emplace_back(flag, kNotDiff | kDiff);
      if (!take_value(value) || !parse_double_arg(value, opt.sigma)) {
        return bad_value(flag, value);
      }
      opt.diff_opt.sigma = opt.sigma;
    } else if (flag == "--query") {
      scoped.emplace_back(flag, kExplain);
      if (!take_value(value) || !parse_ll_arg(value, opt.query_id)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--limit") {
      scoped.emplace_back(flag, kExplain);
      if (!take_value(value) || !parse_size_arg(value, opt.limit)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--tolerance") {
      if (const int rc = threshold(opt.diff_opt.tolerance)) return rc;
    } else if (flag == "--abs-floor-us") {
      if (const int rc = threshold(opt.diff_opt.abs_floor_us)) return rc;
    } else if (flag == "--divergence") {
      if (const int rc = threshold(opt.diff_opt.divergence)) return rc;
    } else if (flag == "--top") {
      scoped.emplace_back(flag, kDiff);
      if (!take_value(value) || !parse_size_arg(value, opt.diff_opt.top)) {
        return bad_value(flag, value);
      }
    } else if (flag == "--budget") {
      scoped.emplace_back(flag, kDiff);
      if (!take_value(value)) return bad_value(flag, value);
      auto budget = mntp::obs::parse_bench_budget(value);
      if (!budget.ok()) {
        std::fprintf(stderr, "mntp-inspect: --budget: %s\n",
                     budget.error().message.c_str());
        return 2;
      }
      opt.diff_opt.budgets.push_back(budget.value());
    } else if (flag == "--write-delta") {
      scoped.emplace_back(flag, kDiff);
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
          "       mntp-inspect validate <file>...\n"
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
          "  `validate` checks every schema rule of each file's kind (the\n"
          "  five above, diff --json records, fleet reports and perf\n"
          "  deltas): shapes, integer types, closed vocabularies, ordering\n"
          "  and conservation ledgers. It takes no flags.\n"
          "  a flag outside the modes listed for it exits 2 (--series and\n"
          "  --width also apply to timelines given without `timeline`);\n"
          "  --tolerance, --abs-floor-us and --divergence must be >= 0.\n"
          "  artifacts with an unknown schema_version render best-effort\n"
          "  behind a stderr warning (exit stays 0).\n"
          "  exit codes: 0 ok, 1 unreadable/unrecognized artifact,\n"
          "  2 usage or empty/truncated artifact; diff mode: 0 identical\n"
          "  within tolerance, 1 significant regression, 2 error;\n"
          "  validate mode: 0 valid, 1 a rule broken or unreadable,\n"
          "  2 usage or empty/truncated artifact\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mntp-inspect: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  for (const auto& [flag, modes] : scoped) {
    if ((modes & opt.mode) != 0) continue;
    const bool one_mode = (modes & (modes - 1)) == 0;
    std::fprintf(stderr, "mntp-inspect: %s %s the %s mode\n", flag.c_str(),
                 one_mode ? "requires" : "does not apply to",
                 mode_name(one_mode ? modes : opt.mode));
    return 2;
  }
  if (opt.sigma <= 0.0) {
    std::fprintf(stderr, "mntp-inspect: --sigma must be > 0\n");
    return 2;
  }
  if (opt.mode == kDiff) {
    if (paths.size() != 2) {
      std::fprintf(stderr,
                   "usage: mntp-inspect diff [--json] [--tolerance R] "
                   "[--abs-floor-us N] [--sigma N] [--divergence D] "
                   "[--top N] [--budget A:B:PCT]... [--write-delta PATH] "
                   "<A> <B>\n");
      return 2;
    }
    // Each file is read once, for the diff and the --write-delta record.
    const auto pair = mntp::obs::read_pair(paths[0], paths[1]);
    auto result = pair.ok()
                      ? mntp::obs::diff_pair(pair.value(), opt.diff_opt)
                      : mntp::core::Result<mntp::obs::DiffResult>(pair.error());
    if (!result.ok()) {
      std::fprintf(stderr, "mntp-inspect: diff: %s\n",
                   result.error().message.c_str());
      return 2;
    }
    for (const std::string& warning : result.value().warnings) {
      std::fprintf(stderr, "mntp-inspect: warning: %s\n", warning.c_str());
    }
    if (!opt.write_delta.empty()) {
      auto delta = mntp::obs::render_perf_delta(pair.value());
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
  if (paths.empty()) {
    std::fprintf(stderr,
                 opt.mode == kValidate
                     ? "usage: mntp-inspect validate <file>...\n"
                     : "usage: mntp-inspect [explain] [--sigma N] [--query ID] "
                       "[--limit N] <file>...\n");
    return 2;
  }
  int status = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (opt.mode == kValidate) {
      status = std::max(status, validate_file(paths[i]));
      continue;
    }
    if (i != 0) std::printf("\n");
    status = std::max(status, inspect_file(paths[i], opt));
  }
  return status;
}
