// One reader per artifact kind (obs/artifact.h). Each reader reads every
// field of its kind once, through the helpers of Reader, which run in
// one of two modes. Strict (validate_artifact): each helper checks its
// rule and a broken one throws Broken, which unwinds to the entry point;
// within() prefixes the message with where it broke on the way out, so
// the rules read top to bottom as the format does. Lenient
// (read_artifact): no rule is checked and each helper returns what
// core::Json's accessor returns; only what no reader can go on without
// (an essential array(), a bench workload's name) still fails. Each vocabulary comes from the code that writes it:
// reasons from kAllReasons, delta classes from diff_class::kAll, metric
// kinds from kind_name, probe kinds from timeseries.h, and the fleet's
// speaker, population and category names from the fleet and log headers
// (header-only, so obs links nothing new).
#include "obs/artifact.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/format.h"
#include "fleet/params.h"
#include "logs/spec.h"
#include "obs/diff.h"
#include "obs/metrics.h"
#include "obs/reason_codes.h"
#include "obs/timeseries.h"

namespace mntp::obs {
namespace {

using core::Error;
using core::Json;
using core::strformat;

/// One artifact file, read, parsed and classified by content but not
/// yet read field by field. Whole-file JSON (profile, bench, diff,
/// fleet, perf delta) is one document. JSONL (run report, query trace,
/// timeline) is one document per non-blank line, meta first, classified
/// by the meta line's kind (none: a run report); a meta-only JSONL file
/// is JSONL too.
struct LoadedArtifact {
  ArtifactKind kind = ArtifactKind::kBench;
  std::vector<Json> docs;
  std::vector<std::size_t> line_numbers;  // JSONL: each doc's file line
};

core::Result<LoadedArtifact> load_artifact(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Error::io("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  if (content.find_first_not_of(" \t\r\n") == std::string::npos) {
    // The producer crashed before its first write, or the path was
    // pre-created by a harness.
    return Error::malformed(path + ": empty artifact file");
  }

  LoadedArtifact loaded;
  if (auto parsed = Json::parse(content); parsed.ok()) {
    const Json& doc = parsed.value();
    const std::string& kind = doc["kind"].as_string();
    // A JSONL artifact with no body (no query, series or metric yet) is
    // a single meta line, i.e. whole-file JSON too: it is split below.
    const bool meta_only =
        doc["type"].as_string() == "meta" &&
        (kind.empty() || kind == "mntp_query_trace" ||
         kind == "mntp_timeline");
    if (!meta_only) {
      if (doc.has("traceEvents")) {
        loaded.kind = ArtifactKind::kProfile;
      } else if (kind == "mntp_perf_suite") {
        loaded.kind = ArtifactKind::kBench;
      } else if (kind == "mntp_diff") {
        loaded.kind = ArtifactKind::kDiff;
      } else if (kind == "mntp_fleet_report") {
        loaded.kind = ArtifactKind::kFleet;
      } else if (kind == "mntp_perf_delta") {
        loaded.kind = ArtifactKind::kPerfDelta;
      } else {
        return Error::invalid_argument(
            kind.empty()
                ? path + ": unrecognized JSON document"
                : path + ": unsupported artifact kind '" + kind + "'");
      }
      loaded.docs.push_back(std::move(parsed).take());
      return loaded;
    }
  }

  // Parse every JSONL line here, once, under one policy. Writers emit
  // whole lines, so only the last line can be a cut-off write (a crashed
  // producer, an interrupted copy); a bad line anywhere else is a
  // corrupt artifact.
  const std::size_t tail = content.find_last_not_of(" \t\r\n");
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos <= tail;) {
    const std::size_t end = std::min(content.find('\n', pos), content.size());
    const std::string_view text(content.data() + pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (text.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    auto parsed = Json::parse(text);
    if (parsed.ok()) {
      loaded.docs.push_back(std::move(parsed).take());
      loaded.line_numbers.push_back(line_no);
    } else if (end > tail) {
      return Error::malformed(strformat(
          "%s: truncated artifact (last line %zu is not valid JSON)",
          path.c_str(), line_no));
    } else {
      return Error::invalid_argument(strformat(
          "%s:%zu: %s", path.c_str(), line_no, parsed.error().message.c_str()));
    }
  }
  const Json& meta = loaded.docs.front();
  if (meta["type"].as_string() != "meta") {
    return Error::invalid_argument(
        path + ": first line is not a meta object (no known artifact kind)");
  }
  const std::string& kind = meta["kind"].as_string();
  loaded.kind = kind == "mntp_query_trace" ? ArtifactKind::kQueryTrace
                : kind == "mntp_timeline"  ? ArtifactKind::kTimeline
                                           : ArtifactKind::kReport;
  return loaded;
}

struct Broken {
  std::string message;
};

enum Bound { kAny, kNonNegative, kPositive };

/// The helpers every reader reads through, in one of the two modes.
struct Reader {
  bool strict;

  /// Strict: unless `ok`, throw the printf-formatted message.
  __attribute__((format(printf, 3, 4))) void expect(bool ok,
                                                    const char* format,
                                                    ...) const {
    if (!strict || ok) return;
    va_list args;
    va_start(args, format);
    va_list sized;
    va_copy(sized, args);
    const int length = std::vsnprintf(nullptr, 0, format, sized);
    va_end(sized);
    std::string message(static_cast<std::size_t>(std::max(length, 0)), '\0');
    std::vsnprintf(message.data(), message.size() + 1, format, args);
    va_end(args);
    throw Broken{std::move(message)};
  }

  /// Run `rules`; strict, prefix a broken rule's message with `where`.
  template <typename Rules>
  void within(const std::string& where, Rules&& rules) const {
    if (!strict) return rules();
    try {
      rules();
    } catch (Broken& broken) {
      broken.message = where + ": " + broken.message;
      throw;
    }
  }

  /// Run `rule(item, i)` on each item, as `name[i]`.
  template <typename Rule>
  void each(const std::vector<Json>& items, const char* name,
            Rule&& rule) const {
    for (std::size_t i = 0; i < items.size(); ++i) {
      within(strict ? strformat("%s[%zu]", name, i) : "",
             [&] { rule(items[i], i); });
    }
  }

  /// obj[key]; strict, it must be present.
  const Json& field(const Json& obj, const char* key) const {
    if (strict) expect(obj.has(key), "missing '%s'", key);
    return obj[key];
  }

  long long integer(const Json& obj, const char* key,
                    Bound bound = kNonNegative) const {
    static const char* const kText[] = {"", " >= 0", " >= 1"};
    const Json& v = field(obj, key);
    const long long n = v.as_int();
    expect(v.is_int() && (bound == kAny || n >= (bound == kPositive ? 1 : 0)),
           "'%s' must be an integer%s", key, kText[bound]);
    return n;
  }

  /// An integer >= 0, read exactly over the uint64 range (a seed).
  std::uint64_t uint64(const Json& obj, const char* key) const {
    return integer(obj, key) >= 0 ? obj[key].as_uint() : 0;
  }

  double number(const Json& obj, const char* key,
                Bound bound = kNonNegative) const {
    static const char* const kText[] = {"", " >= 0", " > 0"};
    const Json& v = field(obj, key);
    const double x = v.as_double();
    expect(v.is_number() && (bound == kAny || x > 0.0 ||
                             (bound == kNonNegative && x == 0.0)),
           "'%s' must be a number%s", key, kText[bound]);
    return x;
  }

  const std::string& text(const Json& obj, const char* key,
                          bool nonempty = true) const {
    const Json& v = field(obj, key);
    expect(v.is_string() && !(nonempty && v.as_string().empty()),
           "'%s' must be a %sstring", key, nonempty ? "non-empty " : "");
    return v.as_string();
  }

  bool boolean(const Json& obj, const char* key) const {
    const Json& v = field(obj, key);
    expect(v.is_bool(), "'%s' must be a boolean", key);
    return v.as_bool();
  }

  const Json& object(const Json& obj, const char* key) const {
    const Json& v = field(obj, key);
    expect(v.is_object(), "'%s' must be an object", key);
    return v;
  }

  /// obj[key] as an array. With `essential`, a lenient reader cannot go
  /// on without it either and fails with that message.
  const std::vector<Json>& array(const Json& obj, const char* key,
                                 bool nonempty = false,
                                 const char* essential = nullptr) const {
    const Json& v = field(obj, key);
    expect(v.is_array() && !(nonempty && v.size() == 0), "'%s' must be %s",
           key, nonempty ? "a non-empty array" : "an array");
    if (essential != nullptr && !v.is_array()) throw Broken{essential};
    return v.as_array();
  }

  ArtifactLabels labels(const Json& obj, const char* key) const {
    const Json& v = field(obj, key);
    bool ok = v.is_object();
    ArtifactLabels out;
    for (const auto& [name, value] : v.as_object()) {
      ok = ok && value.is_string();
      out[name] = value.as_string();
    }
    expect(ok, "'%s' must be a string-to-string object", key);
    return out;
  }

  /// obj[key], which must be a string from `names`.
  template <typename Names>
  const std::string& one_of(const Json& obj, const char* key,
                            const Names& names) const {
    const std::string& s = field(obj, key).as_string();
    expect(!strict || std::find(std::begin(names), std::end(names), s) !=
                          std::end(names),
           "unknown %s '%s'", key, s.c_str());
    return s;
  }

  long long schema_version(const Json& obj, long long want) const {
    const Json& v = field(obj, "schema_version");
    expect(v.is_int() && v.as_int() == want,
           "unsupported schema_version %s (want %lld)",
           v.is_int() ? std::to_string(v.as_int()).c_str() : "(not an integer)",
           want);
    return v.as_int();
  }

  /// a + b for a ledger; strict, failing instead of overflowing.
  long long sum(long long a, long long b) const {
    long long out = 0;
    expect(!__builtin_add_overflow(a, b, &out), "a ledger sum overflows");
    return out;
  }
};

constexpr Reader kLenient{false};

/// The frame of every JSONL kind: line 1 is the meta object (the loader
/// classified by it) with schema_version 1, a run, sim_end_ns and the
/// body line count under `count_key`, which meta(line, count) reads on
/// from; every later line is a `body_type` object for body(line) (the
/// lenient reader skips any other); no line between is blank. Returns
/// the summary.
template <typename Meta, typename Body>
std::string check_lines(const Reader& r, const LoadedArtifact& a,
                        ArtifactFile& file, const char* body_type,
                        const char* count_key, Meta&& meta, Body&& body) {
  long long count = 0;
  for (std::size_t i = 0; i < a.docs.size(); ++i) {
    r.expect(a.line_numbers[i] == i + 1, "line %zu is blank", i + 1);
    const Json& line = a.docs[i];
    r.within(r.strict ? strformat("line %zu", i + 1) : "", [&] {
      if (i == 0) {
        file.schema_version = r.schema_version(line, 1);
        file.run = r.text(line, "run");
        file.sim_end_ns = r.integer(line, "sim_end_ns");
        count = r.integer(line, count_key);
        return meta(line, count);
      }
      const std::string& type = line["type"].as_string();
      r.expect(type != "meta", "duplicate meta line");
      r.expect(type == body_type, "unknown line type '%s'", type.c_str());
      if (type == body_type) body(line);
    });
  }
  const long long lines = static_cast<long long>(a.docs.size()) - 1;
  r.expect(count == lines, "meta %s %lld != %lld %s lines", count_key, count,
           lines, body_type);
  return strformat("%lld %s lines, run '%s'", lines, body_type,
                   file.run.c_str());
}

// ------------------------------------------------------------- report

/// A histogram line: bucket counts that sum to 'count' and, once it
/// counted anything, ordered summary fields.
void read_histogram(const Reader& r, const Json& line, ReportMetric& m) {
  m.count = r.integer(line, "count");
  for (const char* key : {"sum", "min", "max", "p50", "p90", "p99"}) {
    r.field(line, key);
  }
  const std::vector<Json>& buckets = r.array(line, "buckets", true);
  long long total = 0;
  double bound = 0.0;
  r.each(buckets, "buckets", [&](const Json& b, std::size_t i) {
    r.expect(b.size() == 2 && b.has("le") && b.has("count"),
             "must have exactly 'le' and 'count'");
    total = r.sum(total, r.integer(b, "count"));
    if (i + 1 == buckets.size()) {
      r.expect(b["le"].as_string() == "inf", "the last 'le' must be \"inf\"");
      return;
    }
    const double le = r.number(b, "le", kAny);
    r.expect(i == 0 || le > bound, "bounds must ascend (%g after %g)", le,
             bound);
    bound = le;
  });
  r.expect(total == m.count, "bucket counts sum to %lld, 'count' is %lld",
           total, m.count);
  // An empty histogram's summary fields are read but not checked.
  const Reader& summary = m.count > 0 ? r : kLenient;
  const double lo = summary.number(line, "min", kAny);
  m.max = summary.number(line, "max", kAny);
  summary.expect(lo <= m.max, "min > max");
  m.p50 = summary.number(line, "p50", kAny);
  m.p90 = summary.number(line, "p90", kAny);
  m.p99 = summary.number(line, "p99", kAny);
  summary.expect(m.p50 <= m.p90 && m.p90 <= m.p99,
                 "quantiles must satisfy p50<=p90<=p99");
}

std::string read_report(const Reader& r, const LoadedArtifact& a,
                        ArtifactFile& file) {
  using Kind = MetricSnapshot::Kind;
  const std::string_view kinds[] = {kind_name(Kind::kCounter),
                                    kind_name(Kind::kGauge),
                                    kind_name(Kind::kHistogram)};
  std::vector<ReportMetric>& metrics = file.report.metrics;
  return check_lines(
      r, a, file, "metric", "metric_count",
      [&](const Json& meta, long long count) {
        file.report.metric_count = count;
        const Json& events = r.field(meta, "event_count");
        r.expect(events.is_int() && events.as_int() == 0,
                 "'event_count' must be 0 (reports carry metrics only)");
      },
      [&](const Json& line) {
        ReportMetric& m = metrics.emplace_back();
        m.kind = r.one_of(line, "kind", kinds);
        m.name = r.text(line, "name");
        const std::string& last =
            metrics.size() > 1 ? metrics[metrics.size() - 2].name : "";
        r.expect(last <= m.name,
                 "metric lines not sorted by name ('%s' after '%s')",
                 m.name.c_str(), last.c_str());
        m.labels = r.labels(line, "labels");
        if (m.kind == kind_name(Kind::kHistogram)) {
          return read_histogram(r, line, m);
        }
        m.value = r.number(line, "value",
                           m.kind == kind_name(Kind::kCounter) ? kNonNegative
                                                               : kAny);
      });
}

// ------------------------------------------------------------ profile

std::string read_profile(const Reader& r, const Json& doc,
                         ArtifactFile& file) {
  std::size_t spans = 0;
  const std::vector<Json>& events = r.array(
      doc, "traceEvents", false, "profile artifact has no traceEvents array");
  r.each(events, "traceEvents", [&](const Json& e, std::size_t) {
    const std::string& phase = e["ph"].as_string();
    if (phase == "M") {  // metadata: name/args only
      if (e["name"].as_string() == "process_name") {
        file.run = e["args"]["name"].as_string();
      }
      return;
    }
    r.expect(phase == "X", "unexpected phase '%s' (only M and X are emitted)",
             phase.c_str());
    if (phase != "X") return;
    for (const char* key : {"cat", "pid", "tid"}) r.field(e, key);
    const std::string& name = r.text(e, "name");
    r.number(e, "ts");
    const double dur = r.number(e, "dur");
    const Json& args = r.object(e, "args");
    double self = 0.0, count = 1.0, lo = dur, hi = dur;
    bool has_range = true;
    r.within("args", [&] {
      self = r.number(args, "self_us");
      // Rounded independently to 3 decimals: allow half-ULP slack.
      r.expect(self <= dur + 0.001, "'self_us' %g exceeds dur %g", self, dur);
      r.integer(args, "depth");
      if (!args.has("agg_count")) return;  // a plain event: one span
      count = static_cast<double>(r.integer(args, "agg_count", kPositive));
      // The range is optional (older producers wrote none), whole if any.
      has_range = args.has("min_us");
      if (!has_range && !args.has("max_us")) return;
      lo = r.number(args, "min_us");
      hi = r.number(args, "max_us");
      r.expect(lo <= hi, "'min_us' %g exceeds 'max_us' %g", lo, hi);
    });
    SpanAggregate& agg = file.profile.spans[name];
    agg.min_us = agg.count == 0.0 ? lo : std::min(agg.min_us, lo);
    agg.max_us = agg.count == 0.0 ? hi : std::max(agg.max_us, hi);
    agg.has_range = agg.has_range && has_range;
    agg.count += count;
    agg.total_us += dur;
    agg.self_us += self;
    ++spans;
  });
  return strformat("%zu spans, %zu span names", spans,
                   file.profile.spans.size());
}

// -------------------------------------------------------------- bench

/// The build environment a bench run and a perf delta both carry.
const Json& read_environment(const Reader& r, const Json& doc) {
  const Json& env = r.object(doc, "environment");
  r.within("environment", [&] {
    for (const char* key : {"compiler", "build_type", "build_flags"}) {
      r.text(env, key, false);
    }
    r.integer(env, "hardware_threads", kAny);
  });
  return env;
}

/// The workloads of a bench run or a perf delta: a non-empty array of
/// uniquely named objects, each passed on to rule(w, name). Returns how
/// many there are.
template <typename Rule>
std::size_t each_workload(const Reader& r, const Json& doc, Rule&& rule) {
  const std::vector<Json>& workloads = r.array(
      doc, "workloads", true, "bench artifact has no workloads array");
  std::set<std::string> seen;
  r.each(workloads, "workloads", [&](const Json& w, std::size_t) {
    const std::string& name = r.text(w, "name");
    if (name.empty()) throw Broken{"bench workload without name"};
    r.expect(seen.insert(name).second, "duplicate workload name '%s'",
             name.c_str());
    rule(w, name);
  });
  return workloads.size();
}

std::string read_bench(const Reader& r, const Json& doc, ArtifactFile& file) {
  BenchArtifact& bench = file.bench;
  file.schema_version = r.schema_version(doc, 1);
  bench.reps = r.integer(doc, "reps", kPositive);
  bench.warmup = r.integer(doc, "warmup");
  bench.environment = read_environment(r, doc);
  const std::size_t n = each_workload(r, doc, [&](const Json& w,
                                                  const std::string& name) {
    BenchWorkload& out = bench.workloads.emplace_back();
    out.name = name;
    r.expect(r.text(w, "unit") == "us", "'unit' must be \"us\"");
    out.median_us = r.number(w, "median_us");
    out.p95_us = r.number(w, "p95_us");
    out.min_us = r.number(w, "min_us");
    out.max_us = r.number(w, "max_us");
    out.mad_us = r.number(w, "mad_us");
    r.number(w, "mean_us");
    const std::vector<Json>& samples = r.array(w, "samples_us");
    for (const Json& s : samples) {
      r.expect(s.is_number(), "'samples_us' must be an array of numbers");
    }
    r.expect(static_cast<long long>(samples.size()) == bench.reps,
             "%zu samples but reps is %lld", samples.size(), bench.reps);
    r.expect(out.min_us <= out.median_us && out.median_us <= out.p95_us &&
                 out.p95_us <= out.max_us,
             "order statistics must satisfy min<=median<=p95<=max");
  });
  return strformat("%zu workloads, %lld reps", n, bench.reps);
}

/// A perf delta (`diff --write-delta`, the committed BENCH_pr*.json):
/// one entry per workload, either side's median null when the workload
/// exists on one side only. Hand-added blocks (e2e_runs,
/// profile_span_movers, per-pair medians) are free-form.
std::string check_perf_delta(const Reader& r, const Json& doc) {
  r.schema_version(doc, 1);
  read_environment(r, doc);
  return strformat("%zu workloads", each_workload(r, doc, [&](const Json& w,
                                                              const auto&) {
    for (const char* key : {"after_median_us", "before_median_us"}) {
      const Json& v = r.field(w, key);
      r.expect(v.is_null() || v.is_number(), "'%s' must be a number or null",
               key);
    }
  }));
}

// -------------------------------------------------------- query trace

/// The sampling block: every minted id ends exactly one way.
void read_sampling(const Reader& r, const Json& meta, long long query_count,
                   QueryTraceArtifact& trace) {
  const Json& s = r.object(meta, "sampling");
  trace.sampled = true;
  r.within("sampling", [&] {
    trace.sample_one_in_n = r.integer(s, "sample_one_in_n", kPositive);
    trace.seed = r.uint64(s, "seed");
    trace.minted = r.integer(s, "minted");
    trace.kept = r.integer(s, "kept");
    trace.sampled_out = r.integer(s, "sampled_out");
    r.expect(trace.minted ==
                 r.sum(r.sum(trace.kept, trace.sampled_out), trace.dropped),
             "accounting broken: minted %lld != kept %lld + sampled_out %lld "
             "+ dropped %lld",
             trace.minted, trace.kept, trace.sampled_out, trace.dropped);
    r.expect(query_count == trace.kept, "query_count %lld != kept %lld",
             query_count, trace.kept);
  });
}

std::string read_query_trace(const Reader& r, const LoadedArtifact& a,
                             ArtifactFile& file) {
  QueryTraceArtifact& trace = file.trace;
  std::vector<std::string_view> reasons;
  for (Reason reason : kAllReasons) reasons.push_back(to_string(reason));
  long long last_id = 0;
  return check_lines(
      r, a, file, "query", "query_count",
      [&](const Json& meta, long long count) {
        trace.dropped = r.integer(meta, "dropped");
        r.integer(meta, "dropped_stages");
        if (meta.has("sampling")) read_sampling(r, meta, count, trace);
      },
      [&](const Json& line) {
        TraceQuery& q = trace.queries.emplace_back();
        q.id = r.integer(line, "id", kPositive);
        r.expect(q.id > last_id,
                 "query ids must be strictly increasing (%lld after %lld)",
                 q.id, last_id);
        last_id = q.id;
        q.parent = r.integer(line, "parent");
        q.kind = r.text(line, "kind");
        q.start_ns = r.integer(line, "start_ns");
        const std::vector<Json>& stages = r.array(line, "stages");
        q.stages.reserve(stages.size());
        r.each(stages, "stages", [&](const Json& s, std::size_t i) {
          const long long last_t = i == 0 ? q.start_ns : q.stages.back().t_ns;
          TraceStage& stage = q.stages.emplace_back();
          stage.t_ns = r.integer(s, "t_ns", kAny);
          stage.stage = r.text(s, "stage");
          stage.reason = r.one_of(s, "reason", reasons);
          stage.fields = r.object(s, "fields");
          for (const auto& [key, value] : stage.fields.as_object()) {
            r.expect(!key.empty(), "field keys must be non-empty");
            r.expect(value.is_string() || value.is_bool() || value.is_number(),
                     "field '%s' must be a string, bool or number",
                     key.c_str());
          }
          r.expect(stage.t_ns >= last_t, "'t_ns' %lld precedes %lld",
                   stage.t_ns, last_t);
          r.expect(stage.stage != "verdict" || i + 1 == stages.size(),
                   "the 'verdict' stage must be last");
        });
        const TraceStage* verdict = q.verdict_stage();
        q.verdict = verdict ? verdict->reason : "unfinished";
      });
}

// ----------------------------------------------------------- timeline

std::string read_timeline(const Reader& r, const LoadedArtifact& a,
                          ArtifactFile& file) {
  TimelineArtifact& timeline = file.timeline;
  const char* const probes[] = {kCallbackProbe, kCounterProbe};
  return check_lines(
      r, a, file, "series", "series_count",
      [&](const Json& meta, long long count) {
        timeline.series_count = count;
        timeline.cadence_ns = r.integer(meta, "cadence_ns", kPositive);
      },
      [&](const Json& line) {
        TimelineSeries& s = timeline.series.emplace_back();
        s.name = r.text(line, "name");
        s.probe = r.one_of(line, "probe", probes);
        s.labels = r.labels(line, "labels");
        s.samples = r.integer(line, "samples", kPositive);
        s.stride = r.integer(line, "stride", kPositive);
        long long total = 0;
        r.each(r.array(line, "points", true), "points",
               [&](const Json& p, std::size_t i) {
                 static const char* const kColumns[] = {
                     "t_ns", "min", "mean", "max", "last", "count"};
                 r.expect(p.is_array() && p.size() == 6,
                          "must be a [t_ns,min,mean,max,last,count] array");
                 for (std::size_t c = 0; c < 6; ++c) {
                   const bool whole = c == 0 || c == 5;
                   r.expect(whole ? p.at(c).is_int() : p.at(c).is_number(),
                            "'%s' must be %s", kColumns[c],
                            whole ? "an integer" : "a number");
                 }
                 const long long t = p.at(0).as_int();
                 const long long last_t = i == 0 ? 0 : s.t_ns.back();
                 r.expect(i == 0 || t > last_t, "t_ns %lld not after %lld", t,
                          last_t);
                 const double lo = p.at(1).as_double();
                 const double mean = p.at(2).as_double();
                 const double hi = p.at(3).as_double();
                 s.last = p.at(4).as_double();
                 r.expect(lo <= mean && mean <= hi,
                          "needs min<=mean<=max, got %g/%g/%g", lo, mean, hi);
                 r.expect(lo <= s.last && s.last <= hi,
                          "needs min<=last<=max, got %g/%g/%g", lo, s.last,
                          hi);
                 r.expect(p.at(5).as_int() >= 1,
                          "'count' must be an integer >= 1");
                 total = r.sum(total, p.at(5).as_int());
                 s.t_ns.push_back(t);
                 s.min.push_back(lo);
                 s.mean.push_back(mean);
                 s.max.push_back(hi);
               });
        r.expect(total == s.samples,
                 "point counts sum to %lld, 'samples' is %lld", total,
                 s.samples);
      });
}

// --------------------------------------------------------------- diff

std::string check_diff(const Reader& r, const Json& doc) {
  std::vector<std::string_view> diffable;
  for (ArtifactKind kind :
       {ArtifactKind::kBench, ArtifactKind::kProfile, ArtifactKind::kReport,
        ArtifactKind::kQueryTrace, ArtifactKind::kTimeline}) {
    diffable.push_back(artifact_kind_name(kind));
  }
  r.schema_version(doc, 1);
  const std::string& kind = r.one_of(doc, "artifact_kind", diffable);
  for (const char* side : {"a", "b"}) {
    const Json& block = r.object(doc, side);
    r.within(side, [&] {
      r.text(block, "path", false);
      r.text(block, "run", false);
    });
  }
  const Json& options = r.object(doc, "options");
  r.within("options", [&] {
    for (const char* key :
         {"tolerance", "abs_floor_us", "sigma", "divergence"}) {
      r.number(options, key, kAny);
    }
  });
  const long long significant = r.integer(doc, "significant");
  const long long regressions = r.integer(doc, "regressions");
  const Json& hint = r.field(doc, "exit_hint");
  r.expect(hint.is_int() && (hint.as_int() == 0 || hint.as_int() == 1),
           "'exit_hint' must be 0 or 1");
  long long flagged = 0;
  long long regressed = 0;
  std::size_t entries = 0;
  r.each(r.array(doc, "sections"), "sections", [&](const Json& section,
                                                   std::size_t) {
    r.text(section, "title");
    r.each(r.array(section, "entries"), "entries", [&](const Json& e,
                                                       std::size_t) {
      r.text(e, "name");
      for (const char* key : {"before", "after"}) {
        r.expect(e[key].is_null() || e[key].is_number(),
                 "'%s' must be a number or null", key);
      }
      r.number(e, "delta", kAny);
      r.number(e, "score", kAny);
      const bool is_significant = r.boolean(e, "significant");
      const bool is_regression = r.boolean(e, "regression");
      r.expect(is_significant || !is_regression,
               "a regression must also be significant");
      r.one_of(e, "class", diff_class::kAll);
      r.text(e, "note", false);
      flagged += is_significant;
      regressed += is_regression;
      ++entries;
    });
  });
  r.expect(significant == flagged, "'significant' is %lld but entries flag %lld",
           significant, flagged);
  r.expect(regressions == regressed,
           "'regressions' is %lld but entries flag %lld", regressions,
           regressed);
  r.expect(hint.as_int() == (regressed > 0 ? 1 : 0),
           "exit_hint %lld inconsistent with %lld regression(s)",
           static_cast<long long>(hint.as_int()), regressed);
  return strformat("%s diff with %zu entries, %lld significant, %lld "
                   "regression(s)",
                   kind.c_str(), entries, flagged, regressed);
}

// -------------------------------------------------------------- fleet

/// One OWD row (speaker x population, or provider category); returns
/// its count.
long long check_owd_row(const Reader& r, const Json& row) {
  const long long count = r.integer(row, "count");
  const double p50 = r.number(row, "p50_ms");
  const double p90 = r.number(row, "p90_ms");
  const double p99 = r.number(row, "p99_ms");
  const double lo = r.number(row, "min_ms");
  const double hi = r.number(row, "max_ms");
  r.number(row, "mean_ms");
  if (count > 0) {
    r.expect(p50 <= p90 && p90 <= p99, "quantiles must satisfy p50<=p90<=p99");
    r.expect(lo <= hi, "min_ms > max_ms");
  }
  return count;
}

/// The fleet simulator's conservation ledger: every query is accounted
/// for once at every stage (issued -> arrived/dropped -> per server ->
/// cache hit/miss and OWD valid/invalid, both net of KoD-limited
/// requests, which receive no time response).
std::string check_fleet(const Reader& r, const Json& doc) {
  r.schema_version(doc, 3);
  const Json& params = r.object(doc, "params");
  long long clients = 0;
  r.within("params", [&] {
    clients = r.integer(params, "clients");
    for (const char* key : {"shards", "seed", "kod_limit_per_slice"}) {
      r.integer(params, key);
    }
    for (const char* key : {"duration_s", "cache_bucket_ms"}) {
      r.number(params, key, kPositive);
    }
  });
  const Json& pop = r.object(doc, "population");
  r.within("population", [&] {
    const long long total = r.integer(pop, "clients");
    r.expect(r.sum(r.integer(pop, "sntp_clients"),
                   r.integer(pop, "ntp_clients")) == total,
             "sntp_clients + ntp_clients != clients");
    r.expect(r.sum(r.integer(pop, "wireless_clients"),
                   r.integer(pop, "wired_clients")) == total,
             "wireless_clients + wired_clients != clients");
    r.expect(total == clients, "clients != params.clients");
  });
  const Json& totals = r.object(doc, "totals");
  long long queries = 0, arrived = 0, owd_valid = 0;
  r.within("totals", [&] {
    arrived = r.integer(totals, "arrived");
    queries = r.integer(totals, "queries");
    r.expect(queries == r.sum(arrived, r.integer(totals, "dropped")),
             "queries != arrived + dropped");
    const long long served = arrived - r.integer(totals, "kod");
    r.expect(r.sum(r.integer(totals, "cache_hits"),
                   r.integer(totals, "cache_misses")) == served,
             "cache_hits + cache_misses != arrived - kod");
    owd_valid = r.integer(totals, "owd_valid");
    r.expect(r.sum(owd_valid, r.integer(totals, "owd_invalid")) == served,
             "owd_valid + owd_invalid != arrived - kod");
  });
  const Json& throughput = r.object(doc, "throughput");
  r.within("throughput", [&] {
    r.integer(throughput, "threads", kPositive);
    for (const char* key : {"wall_s", "qps", "qps_per_core"}) {
      r.number(throughput, key);
    }
  });

  std::set<std::string> ids;
  long long requests = 0;
  r.each(r.array(doc, "servers", true), "servers", [&](const Json& s,
                                                       std::size_t) {
    const std::string& id = r.text(s, "id");
    r.expect(ids.insert(id).second, "duplicate id '%s'", id.c_str());
    requests = r.sum(requests, r.integer(s, "requests"));
  });
  r.expect(requests == arrived,
           "per-server requests sum to %lld, totals.arrived is %lld",
           requests, arrived);

  const std::string_view speakers[] = {speaker_name(fleet::Speaker::kNtp),
                                       speaker_name(fleet::Speaker::kSntp)};
  const std::string_view populations[] = {
      population_name(fleet::Population::kWired),
      population_name(fleet::Population::kWireless)};
  const std::vector<Json>& owd = r.array(doc, "owd");
  r.expect(owd.size() == 4, "'owd' must hold the 4 speaker x population rows");
  std::set<std::string> classes;
  long long owd_count = 0;
  r.each(owd, "owd", [&](const Json& row, std::size_t) {
    owd_count = r.sum(owd_count, check_owd_row(r, row));
    const std::string& speaker = r.one_of(row, "speaker", speakers);
    const std::string cls =
        speaker + "/" + r.one_of(row, "population", populations);
    r.expect(classes.insert(cls).second, "duplicate class %s", cls.c_str());
  });
  r.expect(owd_count == owd_valid,
           "owd row counts sum to %lld, totals.owd_valid is %lld", owd_count,
           owd_valid);

  // Rows in ProviderCategory order, as the report writes them.
  const std::vector<Json>& categories = r.array(doc, "category_owd");
  r.expect(categories.size() == 4,
           "'category_owd' must hold the 4 provider categories");
  long long category_count = 0;
  r.each(categories, "category_owd", [&](const Json& row, std::size_t i) {
    category_count = r.sum(category_count, check_owd_row(r, row));
    const std::string want(
        logs::category_name(static_cast<logs::ProviderCategory>(i)));
    r.expect(row["category"].as_string() == want, "expected category '%s'",
             want.c_str());
  });
  r.expect(category_count == owd_valid,
           "category_owd counts sum to %lld, totals.owd_valid is %lld",
           category_count, owd_valid);
  return strformat("%lld clients, %lld queries", clients, queries);
}

/// load_artifact, then the reader of its kind in `r`'s mode: "kind:
/// summary", or the error naming the path. Only a strict reader takes a
/// validate-only kind (one after kTimeline).
core::Result<std::string> load_and_read(const std::string& path,
                                        const Reader& r, ArtifactFile& file) {
  auto loaded = load_artifact(path);
  if (!loaded.ok()) return loaded.error();
  const LoadedArtifact& a = loaded.value();
  const Json& doc = a.docs.front();
  file.kind = a.kind;
  if (!r.strict && a.kind > ArtifactKind::kTimeline) {
    return Error::invalid_argument(path + ": unsupported artifact kind '" +
                                   doc["kind"].as_string() +
                                   "' (validate only)");
  }
  const std::string kind = std::string(artifact_kind_name(a.kind)) + ": ";
  try {
    switch (a.kind) {
      case ArtifactKind::kBench: return kind + read_bench(r, doc, file);
      case ArtifactKind::kProfile: return kind + read_profile(r, doc, file);
      case ArtifactKind::kReport: return kind + read_report(r, a, file);
      case ArtifactKind::kQueryTrace:
        return kind + read_query_trace(r, a, file);
      case ArtifactKind::kTimeline: return kind + read_timeline(r, a, file);
      case ArtifactKind::kDiff: return kind + check_diff(r, doc);
      case ArtifactKind::kFleet: return kind + check_fleet(r, doc);
      case ArtifactKind::kPerfDelta: return kind + check_perf_delta(r, doc);
    }
  } catch (const Broken& broken) {
    return Error::invalid_argument(path + ": " + broken.message);
  }
  return Error::invalid_argument(path + ": unknown artifact kind");
}

}  // namespace

const char* artifact_kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kBench: return "bench";
    case ArtifactKind::kProfile: return "profile";
    case ArtifactKind::kReport: return "report";
    case ArtifactKind::kQueryTrace: return "query-trace";
    case ArtifactKind::kTimeline: return "timeline";
    case ArtifactKind::kDiff: return "diff";
    case ArtifactKind::kFleet: return "fleet";
    case ArtifactKind::kPerfDelta: return "perf-delta";
  }
  return "unknown";
}

const TraceStage* TraceQuery::verdict_stage() const {
  for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
    if (it->stage == "verdict") return &*it;
  }
  return nullptr;
}

core::Result<ArtifactFile> read_artifact(const std::string& path) {
  ArtifactFile file;
  auto read = load_and_read(path, Reader{false}, file);
  if (!read.ok()) return read.error();
  return file;
}

core::Result<std::string> validate_artifact(const std::string& path) {
  ArtifactFile file;
  return load_and_read(path, Reader{true}, file);
}

}  // namespace mntp::obs
