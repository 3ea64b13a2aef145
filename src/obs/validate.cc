// validate_artifact (obs/diff.h): the strict schema rules of every
// artifact kind, run over the documents load_artifact parsed. Rendering
// (read_artifact) stays best-effort; this is where a producer's output
// is held to its format. Each vocabulary comes from the code that writes
// it: reasons from kAllReasons, delta classes from diff_class::kAll,
// metric kinds from kind_name, probe kinds from timeseries.h, and the
// fleet's speaker, population and category names from the fleet and log
// headers (header-only, so obs links nothing new).
//
// A broken rule throws Broken, which unwinds to validate_artifact;
// within() prefixes the message with where it broke on the way out, so
// the rules read top to bottom as the format does.
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/format.h"
#include "core/json.h"
#include "fleet/params.h"
#include "logs/spec.h"
#include "obs/diff.h"
#include "obs/metrics.h"
#include "obs/reason_codes.h"
#include "obs/timeseries.h"

namespace mntp::obs {
namespace {

using core::Json;
using core::strformat;
using std::to_string;

struct Broken {
  std::string message;
};

[[noreturn]] void fail(std::string message) {
  throw Broken{std::move(message)};
}

void expect(bool ok, const std::string& message) {
  if (!ok) fail(message);
}

/// Run `rules`, prefixing a broken rule's message with `where`.
template <typename Rules>
void within(const std::string& where, Rules&& rules) {
  try {
    rules();
  } catch (Broken& broken) {
    broken.message = where + ": " + broken.message;
    throw;
  }
}

/// Run `rule(item, i)` on each item, as `name[i]`.
template <typename Rule>
void each(const std::vector<Json>& items, const char* name, Rule&& rule) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    within(strformat("%s[%zu]", name, i), [&] { rule(items[i], i); });
  }
}

/// obj[key], which must be present.
const Json& field(const Json& obj, const char* key) {
  if (!obj.has(key)) fail(strformat("missing '%s'", key));
  return obj[key];
}

enum Bound { kAny, kNonNegative, kPositive };

std::int64_t integer(const Json& obj, const char* key,
                     Bound bound = kNonNegative) {
  static const char* const kText[] = {"", " >= 0", " >= 1"};
  const Json& v = field(obj, key);
  const std::int64_t n = v.as_int();
  expect(v.is_int() && (bound == kAny || n >= (bound == kPositive ? 1 : 0)),
         strformat("'%s' must be an integer%s", key, kText[bound]));
  return n;
}

double number(const Json& obj, const char* key, Bound bound = kNonNegative) {
  static const char* const kText[] = {"", " >= 0", " > 0"};
  const Json& v = field(obj, key);
  const double x = v.as_double();
  expect(v.is_number() && (bound == kAny || x > 0.0 ||
                           (bound == kNonNegative && x == 0.0)),
         strformat("'%s' must be a number%s", key, kText[bound]));
  return x;
}

const std::string& text(const Json& obj, const char* key,
                        bool nonempty = true) {
  const Json& v = field(obj, key);
  expect(v.is_string() && !(nonempty && v.as_string().empty()),
         strformat("'%s' must be a %sstring", key,
                   nonempty ? "non-empty " : ""));
  return v.as_string();
}

bool boolean(const Json& obj, const char* key) {
  expect(field(obj, key).is_bool(), strformat("'%s' must be a boolean", key));
  return obj[key].as_bool();
}

const Json& object(const Json& obj, const char* key) {
  expect(field(obj, key).is_object(),
         strformat("'%s' must be an object", key));
  return obj[key];
}

const std::vector<Json>& array(const Json& obj, const char* key,
                               bool nonempty = false) {
  const Json& v = field(obj, key);
  expect(v.is_array() && !(nonempty && v.size() == 0),
         strformat("'%s' must be %s", key,
                   nonempty ? "a non-empty array" : "an array"));
  return v.as_array();
}

void labels(const Json& obj, const char* key) {
  const Json& v = field(obj, key);
  bool ok = v.is_object();
  for (const auto& [name, value] : v.as_object()) ok = ok && value.is_string();
  expect(ok, strformat("'%s' must be a string-to-string object", key));
}

/// obj[key] must be a string from `names`; returns it.
template <typename Names>
const std::string& one_of(const Json& obj, const char* key,
                          const Names& names) {
  const Json& v = field(obj, key);
  for (const auto& name : names) {
    if (v.is_string() && v.as_string() == name) return v.as_string();
  }
  fail(strformat("unknown %s '%s'", key, v.as_string().c_str()));
}

void schema_version(const Json& obj, std::int64_t want) {
  const Json& v = field(obj, "schema_version");
  expect(v.is_int() && v.as_int() == want,
         "unsupported schema_version " +
             (v.is_int() ? to_string(v.as_int()) : "(not an integer)") +
             " (want " + to_string(want) + ")");
}

/// a + b for a ledger, failing instead of overflowing.
std::int64_t sum(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) fail("a ledger sum overflows");
  return out;
}

/// The frame of every JSONL kind: line 1 is the meta object (the loader
/// classified by it) with schema_version 1, a run, sim_end_ns and the
/// body line count under `count_key`; every later line is a `body_type`
/// object; no line between is blank. Returns the summary.
template <typename Meta, typename Body>
std::string check_lines(const LoadedArtifact& a, const char* body_type,
                        const char* count_key, Meta&& meta, Body&& body) {
  for (std::size_t i = 0; i < a.docs.size(); ++i) {
    if (a.line_numbers[i] != i + 1) fail(strformat("line %zu is blank", i + 1));
    const Json& line = a.docs[i];
    within(strformat("line %zu", i + 1), [&] {
      if (i == 0) {
        schema_version(line, 1);
        text(line, "run");
        integer(line, "sim_end_ns");
        integer(line, count_key);
        return meta(line);
      }
      const std::string& type = line["type"].as_string();
      expect(type != "meta", "duplicate meta line");
      expect(type == body_type, "unknown line type '" + type + "'");
      body(line);
    });
  }
  const Json& meta_line = a.docs.front();
  const std::string lines = to_string(a.docs.size() - 1);
  expect(meta_line[count_key].as_int() ==
             static_cast<std::int64_t>(a.docs.size() - 1),
         strformat("meta %s %lld != %s %s lines", count_key,
                   static_cast<long long>(meta_line[count_key].as_int()),
                   lines.c_str(), body_type));
  return lines + " " + body_type + " lines, run '" +
         meta_line["run"].as_string() + "'";
}

// ------------------------------------------------------------- report

void check_histogram(const Json& m) {
  const std::int64_t count = integer(m, "count");
  for (const char* key : {"sum", "min", "max", "p50", "p90", "p99"}) {
    field(m, key);
  }
  const std::vector<Json>& buckets = array(m, "buckets", true);
  std::int64_t total = 0;
  double bound = 0.0;
  each(buckets, "buckets", [&](const Json& b, std::size_t i) {
    expect(b.size() == 2 && b.has("le") && b.has("count"),
           "must have exactly 'le' and 'count'");
    total = sum(total, integer(b, "count"));
    if (i + 1 == buckets.size()) {
      expect(b["le"].as_string() == "inf", "the last 'le' must be \"inf\"");
      return;
    }
    const double le = number(b, "le", kAny);
    expect(i == 0 || le > bound,
           strformat("bounds must ascend (%g after %g)", le, bound));
    bound = le;
  });
  expect(total == count, "bucket counts sum to " + to_string(total) +
                             ", 'count' is " + to_string(count));
  if (count == 0) return;
  expect(number(m, "min", kAny) <= number(m, "max", kAny), "min > max");
  const double p50 = number(m, "p50", kAny);
  const double p90 = number(m, "p90", kAny);
  const double p99 = number(m, "p99", kAny);
  expect(p50 <= p90 && p90 <= p99, "quantiles must satisfy p50<=p90<=p99");
}

std::string check_report(const LoadedArtifact& a) {
  using Kind = MetricSnapshot::Kind;
  const std::string_view kinds[] = {kind_name(Kind::kCounter),
                                    kind_name(Kind::kGauge),
                                    kind_name(Kind::kHistogram)};
  std::string last_name;
  return check_lines(
      a, "metric", "metric_count",
      [](const Json& meta) {
        const Json& events = field(meta, "event_count");
        expect(events.is_int() && events.as_int() == 0,
               "'event_count' must be 0 (reports carry metrics only)");
      },
      [&](const Json& m) {
        const std::string& kind = one_of(m, "kind", kinds);
        const std::string& name = text(m, "name");
        expect(last_name <= name, "metric lines not sorted by name ('" +
                                      name + "' after '" + last_name + "')");
        last_name = name;
        labels(m, "labels");
        if (kind == kind_name(Kind::kHistogram)) return check_histogram(m);
        number(m, "value",
               kind == kind_name(Kind::kCounter) ? kNonNegative : kAny);
      });
}

// ------------------------------------------------------------ profile

std::string check_profile(const Json& doc) {
  std::size_t spans = 0;
  std::set<std::string> names;
  each(array(doc, "traceEvents"), "traceEvents",
       [&](const Json& e, std::size_t) {
         const std::string& phase = e["ph"].as_string();
         if (phase == "M") return;  // metadata: name/args only
         expect(phase == "X", "unexpected phase '" + phase +
                                  "' (only M and X are emitted)");
         for (const char* key : {"cat", "pid", "tid"}) field(e, key);
         names.insert(text(e, "name"));
         number(e, "ts");
         const double dur = number(e, "dur");
         const Json& args = object(e, "args");
         within("args", [&] {
           const double self = number(args, "self_us");
           // Rounded independently to 3 decimals: allow half-ULP slack.
           expect(self <= dur + 0.001,
                  strformat("'self_us' %g exceeds dur %g", self, dur));
           integer(args, "depth");
         });
         ++spans;
       });
  return to_string(spans) + " spans, " + to_string(names.size()) +
         " span names";
}

// -------------------------------------------------------------- bench

/// The build environment a bench run and a perf delta both carry.
void check_environment(const Json& doc) {
  const Json& env = object(doc, "environment");
  within("environment", [&] {
    for (const char* key : {"compiler", "build_type", "build_flags"}) {
      text(env, key, false);
    }
    integer(env, "hardware_threads", kAny);
  });
}

std::string check_bench(const Json& doc) {
  schema_version(doc, 1);
  const std::int64_t reps = integer(doc, "reps", kPositive);
  integer(doc, "warmup");
  check_environment(doc);
  const std::vector<Json>& workloads = array(doc, "workloads", true);
  std::set<std::string> seen;
  each(workloads, "workloads", [&](const Json& w, std::size_t) {
    const std::string& name = text(w, "name");
    expect(seen.insert(name).second,
           "duplicate workload name '" + name + "'");
    expect(text(w, "unit") == "us", "'unit' must be \"us\"");
    const double median = number(w, "median_us");
    const double p95 = number(w, "p95_us");
    const double lo = number(w, "min_us");
    const double hi = number(w, "max_us");
    number(w, "mad_us");
    number(w, "mean_us");
    const std::vector<Json>& samples = array(w, "samples_us");
    for (const Json& s : samples) {
      expect(s.is_number(), "'samples_us' must be an array of numbers");
    }
    expect(static_cast<std::int64_t>(samples.size()) == reps,
           to_string(samples.size()) + " samples but reps is " +
               to_string(reps));
    expect(lo <= median && median <= p95 && p95 <= hi,
           "order statistics must satisfy min<=median<=p95<=max");
  });
  return to_string(workloads.size()) + " workloads, " + to_string(reps) +
         " reps";
}

/// A perf delta (`diff --write-delta`, the committed BENCH_pr*.json):
/// one entry per workload, either side's median null when the workload
/// exists on one side only. Hand-added blocks (e2e_runs,
/// profile_span_movers, per-pair medians) are free-form.
std::string check_perf_delta(const Json& doc) {
  schema_version(doc, 1);
  check_environment(doc);
  const std::vector<Json>& workloads = array(doc, "workloads", true);
  std::set<std::string> seen;
  each(workloads, "workloads", [&](const Json& w, std::size_t) {
    const std::string& name = text(w, "name");
    expect(seen.insert(name).second,
           "duplicate workload name '" + name + "'");
    for (const char* key : {"after_median_us", "before_median_us"}) {
      const Json& v = field(w, key);
      expect(v.is_null() || v.is_number(),
             strformat("'%s' must be a number or null", key));
    }
  });
  return to_string(workloads.size()) + " workloads";
}

// -------------------------------------------------------- query trace

/// The sampling block: every minted id ends exactly one way.
void check_sampling(const Json& meta) {
  const Json& s = object(meta, "sampling");
  within("sampling", [&] {
    integer(s, "sample_one_in_n", kPositive);
    integer(s, "seed");
    const std::int64_t minted = integer(s, "minted");
    const std::int64_t kept = integer(s, "kept");
    const std::int64_t out = integer(s, "sampled_out");
    const std::int64_t dropped = meta["dropped"].as_int();
    expect(minted == sum(sum(kept, out), dropped),
           "accounting broken: minted " + to_string(minted) + " != kept " +
               to_string(kept) + " + sampled_out " + to_string(out) +
               " + dropped " + to_string(dropped));
    expect(meta["query_count"].as_int() == kept,
           "query_count " + to_string(meta["query_count"].as_int()) +
               " != kept " + to_string(kept));
  });
}

std::string check_query_trace(const LoadedArtifact& a) {
  std::vector<std::string_view> reasons;
  for (Reason r : kAllReasons) reasons.push_back(to_string(r));
  std::int64_t last_id = 0;
  return check_lines(
      a, "query", "query_count",
      [](const Json& meta) {
        integer(meta, "dropped");
        integer(meta, "dropped_stages");
        if (meta.has("sampling")) check_sampling(meta);
      },
      [&](const Json& q) {
        const std::int64_t id = integer(q, "id", kPositive);
        expect(id > last_id, "query ids must be strictly increasing (" +
                                 to_string(id) + " after " +
                                 to_string(last_id) + ")");
        last_id = id;
        integer(q, "parent");
        text(q, "kind");
        std::int64_t last_t = integer(q, "start_ns");
        const std::vector<Json>& stages = array(q, "stages");
        each(stages, "stages", [&](const Json& s, std::size_t i) {
          const std::int64_t t = integer(s, "t_ns", kAny);
          const std::string& stage = text(s, "stage");
          one_of(s, "reason", reasons);
          for (const auto& [key, value] : object(s, "fields").as_object()) {
            expect(!key.empty(), "field keys must be non-empty");
            expect(value.is_string() || value.is_bool() || value.is_number(),
                   "field '" + key + "' must be a string, bool or number");
          }
          expect(t >= last_t, "'t_ns' " + to_string(t) + " precedes " +
                                  to_string(last_t));
          last_t = t;
          expect(stage != "verdict" || i + 1 == stages.size(),
                 "the 'verdict' stage must be last");
        });
      });
}

// ----------------------------------------------------------- timeline

std::string check_timeline(const LoadedArtifact& a) {
  const char* const probes[] = {kCallbackProbe, kCounterProbe};
  return check_lines(
      a, "series", "series_count",
      [](const Json& meta) { integer(meta, "cadence_ns", kPositive); },
      [&](const Json& s) {
        text(s, "name");
        one_of(s, "probe", probes);
        labels(s, "labels");
        const std::int64_t samples = integer(s, "samples", kPositive);
        integer(s, "stride", kPositive);
        std::int64_t total = 0;
        std::int64_t last_t = 0;
        each(array(s, "points", true), "points",
             [&](const Json& p, std::size_t i) {
               static const char* const kColumns[] = {
                   "t_ns", "min", "mean", "max", "last", "count"};
               expect(p.is_array() && p.size() == 6,
                      "must be a [t_ns,min,mean,max,last,count] array");
               for (std::size_t c = 0; c < 6; ++c) {
                 const bool whole = c == 0 || c == 5;
                 expect(whole ? p.at(c).is_int() : p.at(c).is_number(),
                        "'" + std::string(kColumns[c]) + "' must be " +
                            (whole ? "an integer" : "a number"));
               }
               const std::int64_t t = p.at(0).as_int();
               expect(i == 0 || t > last_t, "t_ns " + to_string(t) +
                                                " not after " +
                                                to_string(last_t));
               last_t = t;
               const double lo = p.at(1).as_double();
               const double mean = p.at(2).as_double();
               const double hi = p.at(3).as_double();
               const double last = p.at(4).as_double();
               expect(lo <= mean && mean <= hi,
                      strformat("needs min<=mean<=max, got %g/%g/%g", lo,
                                mean, hi));
               expect(lo <= last && last <= hi,
                      strformat("needs min<=last<=max, got %g/%g/%g", lo,
                                last, hi));
               expect(p.at(5).as_int() >= 1,
                      "'count' must be an integer >= 1");
               total = sum(total, p.at(5).as_int());
             });
        expect(total == samples, "point counts sum to " + to_string(total) +
                                     ", 'samples' is " + to_string(samples));
      });
}

// --------------------------------------------------------------- diff

std::string check_diff(const Json& doc) {
  std::vector<std::string_view> diffable;
  for (ArtifactKind kind :
       {ArtifactKind::kBench, ArtifactKind::kProfile, ArtifactKind::kReport,
        ArtifactKind::kQueryTrace, ArtifactKind::kTimeline}) {
    diffable.push_back(artifact_kind_name(kind));
  }
  schema_version(doc, 1);
  const std::string& kind = one_of(doc, "artifact_kind", diffable);
  for (const char* side : {"a", "b"}) {
    const Json& block = object(doc, side);
    within(side, [&] {
      text(block, "path", false);
      text(block, "run", false);
    });
  }
  const Json& options = object(doc, "options");
  within("options", [&] {
    for (const char* key :
         {"tolerance", "abs_floor_us", "sigma", "divergence"}) {
      number(options, key, kAny);
    }
  });
  const std::int64_t significant = integer(doc, "significant");
  const std::int64_t regressions = integer(doc, "regressions");
  const Json& hint = field(doc, "exit_hint");
  expect(hint.is_int() && (hint.as_int() == 0 || hint.as_int() == 1),
         "'exit_hint' must be 0 or 1");
  std::int64_t flagged = 0;
  std::int64_t regressed = 0;
  std::size_t entries = 0;
  each(array(doc, "sections"), "sections", [&](const Json& section,
                                               std::size_t) {
    text(section, "title");
    each(array(section, "entries"), "entries", [&](const Json& e,
                                                   std::size_t) {
      text(e, "name");
      for (const char* key : {"before", "after"}) {
        expect(e[key].is_null() || e[key].is_number(),
               strformat("'%s' must be a number or null", key));
      }
      number(e, "delta", kAny);
      number(e, "score", kAny);
      const bool is_significant = boolean(e, "significant");
      const bool is_regression = boolean(e, "regression");
      expect(is_significant || !is_regression,
             "a regression must also be significant");
      one_of(e, "class", diff_class::kAll);
      text(e, "note", false);
      flagged += is_significant;
      regressed += is_regression;
      ++entries;
    });
  });
  expect(significant == flagged, "'significant' is " + to_string(significant) +
                                     " but entries flag " + to_string(flagged));
  expect(regressions == regressed, "'regressions' is " +
                                       to_string(regressions) +
                                       " but entries flag " +
                                       to_string(regressed));
  expect(hint.as_int() == (regressed > 0 ? 1 : 0),
         "exit_hint " + to_string(hint.as_int()) + " inconsistent with " +
             to_string(regressed) + " regression(s)");
  return kind + " diff with " + to_string(entries) + " entries, " +
         to_string(flagged) + " significant, " + to_string(regressed) +
         " regression(s)";
}

// -------------------------------------------------------------- fleet

/// One OWD row (speaker x population, or provider category); returns
/// its count.
std::int64_t check_owd_row(const Json& row) {
  const std::int64_t count = integer(row, "count");
  const double p50 = number(row, "p50_ms");
  const double p90 = number(row, "p90_ms");
  const double p99 = number(row, "p99_ms");
  const double lo = number(row, "min_ms");
  const double hi = number(row, "max_ms");
  number(row, "mean_ms");
  if (count > 0) {
    expect(p50 <= p90 && p90 <= p99, "quantiles must satisfy p50<=p90<=p99");
    expect(lo <= hi, "min_ms > max_ms");
  }
  return count;
}

/// The fleet simulator's conservation ledger: every query is accounted
/// for once at every stage (issued -> arrived/dropped -> per server ->
/// cache hit/miss and OWD valid/invalid, both net of KoD-limited
/// requests, which receive no time response).
std::string check_fleet(const Json& doc) {
  schema_version(doc, 2);
  const Json& params = object(doc, "params");
  within("params", [&] {
    for (const char* key :
         {"clients", "shards", "seed", "kod_limit_per_slice"}) {
      integer(params, key);
    }
    for (const char* key :
         {"duration_s", "cache_bucket_ms", "batch_window_ms"}) {
      number(params, key, kPositive);
    }
  });
  const Json& pop = object(doc, "population");
  within("population", [&] {
    const std::int64_t clients = integer(pop, "clients");
    expect(sum(integer(pop, "sntp_clients"), integer(pop, "ntp_clients")) ==
               clients,
           "sntp_clients + ntp_clients != clients");
    expect(sum(integer(pop, "wireless_clients"),
               integer(pop, "wired_clients")) == clients,
           "wireless_clients + wired_clients != clients");
    expect(clients == params["clients"].as_int(),
           "clients != params.clients");
  });
  const Json& totals = object(doc, "totals");
  within("totals", [&] {
    const std::int64_t arrived = integer(totals, "arrived");
    integer(totals, "batches");
    expect(integer(totals, "queries") ==
               sum(arrived, integer(totals, "dropped")),
           "queries != arrived + dropped");
    const std::int64_t served = arrived - integer(totals, "kod");
    expect(sum(integer(totals, "cache_hits"),
               integer(totals, "cache_misses")) == served,
           "cache_hits + cache_misses != arrived - kod");
    expect(sum(integer(totals, "owd_valid"),
               integer(totals, "owd_invalid")) == served,
           "owd_valid + owd_invalid != arrived - kod");
  });
  const std::int64_t arrived = totals["arrived"].as_int();
  const std::int64_t owd_valid = totals["owd_valid"].as_int();
  const Json& throughput = object(doc, "throughput");
  within("throughput", [&] {
    integer(throughput, "threads", kPositive);
    for (const char* key : {"wall_s", "qps", "qps_per_core"}) {
      number(throughput, key);
    }
  });

  std::set<std::string> ids;
  std::int64_t requests = 0;
  each(array(doc, "servers", true), "servers", [&](const Json& s,
                                                   std::size_t) {
    const std::string& id = text(s, "id");
    expect(ids.insert(id).second, "duplicate id '" + id + "'");
    requests = sum(requests, integer(s, "requests"));
  });
  expect(requests == arrived, "per-server requests sum to " +
                                  to_string(requests) +
                                  ", totals.arrived is " + to_string(arrived));

  const std::string_view speakers[] = {speaker_name(fleet::Speaker::kNtp),
                                       speaker_name(fleet::Speaker::kSntp)};
  const std::string_view populations[] = {
      population_name(fleet::Population::kWired),
      population_name(fleet::Population::kWireless)};
  const std::vector<Json>& owd = array(doc, "owd");
  expect(owd.size() == 4, "'owd' must hold the 4 speaker x population rows");
  std::set<std::string> classes;
  std::int64_t owd_count = 0;
  each(owd, "owd", [&](const Json& row, std::size_t) {
    owd_count = sum(owd_count, check_owd_row(row));
    const std::string& speaker = one_of(row, "speaker", speakers);
    const std::string cls =
        speaker + "/" + one_of(row, "population", populations);
    expect(classes.insert(cls).second, "duplicate class " + cls);
  });
  expect(owd_count == owd_valid, "owd row counts sum to " +
                                     to_string(owd_count) +
                                     ", totals.owd_valid is " +
                                     to_string(owd_valid));

  // Rows in ProviderCategory order, as the report writes them.
  const std::vector<Json>& categories = array(doc, "category_owd");
  expect(categories.size() == 4,
         "'category_owd' must hold the 4 provider categories");
  std::int64_t category_count = 0;
  each(categories, "category_owd", [&](const Json& row, std::size_t i) {
    category_count = sum(category_count, check_owd_row(row));
    const std::string want(
        logs::category_name(static_cast<logs::ProviderCategory>(i)));
    expect(row["category"].as_string() == want,
           "expected category '" + want + "'");
  });
  expect(category_count == owd_valid, "category_owd counts sum to " +
                                          to_string(category_count) +
                                          ", totals.owd_valid is " +
                                          to_string(owd_valid));
  return to_string(params["clients"].as_int()) + " clients, " +
         to_string(totals["queries"].as_int()) + " queries";
}

std::string check(const LoadedArtifact& a) {
  switch (a.kind) {
    case ArtifactKind::kBench: return check_bench(a.docs.front());
    case ArtifactKind::kProfile: return check_profile(a.docs.front());
    case ArtifactKind::kReport: return check_report(a);
    case ArtifactKind::kQueryTrace: return check_query_trace(a);
    case ArtifactKind::kTimeline: return check_timeline(a);
    case ArtifactKind::kDiff: return check_diff(a.docs.front());
    case ArtifactKind::kFleet: return check_fleet(a.docs.front());
    case ArtifactKind::kPerfDelta: return check_perf_delta(a.docs.front());
  }
  fail("unknown artifact kind");
}

}  // namespace

core::Result<std::string> validate_artifact(const std::string& path) {
  auto loaded = load_artifact(path);
  if (!loaded.ok()) return loaded.error();
  try {
    return std::string(artifact_kind_name(loaded.value().kind)) + ": " +
           check(loaded.value());
  } catch (const Broken& broken) {
    return core::Error::invalid_argument(path + ": " + broken.message);
  }
}

}  // namespace mntp::obs
