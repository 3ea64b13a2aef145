#include "obs/diff.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "core/format.h"
#include "core/json.h"
#include "core/json_writer.h"
#include "core/stats.h"
#include "core/table.h"

namespace mntp::obs {
namespace {

using core::Error;
using core::Json;
using core::Result;

// Class vocabulary (see diff.h).
constexpr const char* kEqual = "equal";
constexpr const char* kChanged = "changed";
constexpr const char* kExact = "exact";
constexpr const char* kShifted = "shifted";
constexpr const char* kAdded = "added";
constexpr const char* kRemoved = "removed";

/// A loaded artifact: the kind plus whichever representation that kind
/// parses into. Only one of the per-kind members is populated.
struct Artifact {
  DiffKind kind = DiffKind::kBench;
  std::string run;

  // bench: workload name -> (median, mad), plus the whole document
  // (workload order and environment for the delta record and warnings)
  struct Workload {
    double median_us = 0.0;
    double mad_us = 0.0;
  };
  std::map<std::string, Workload> workloads;
  Json doc;

  // profile: span name -> aggregate
  struct SpanAgg {
    double count = 0.0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, SpanAgg> spans;

  // report: "name{labels}" -> scalar; histograms
  struct Scalar {
    double value = 0.0;
    bool accounting = false;  // mntp.* / obs.* counter: exact class
  };
  struct HistRow {
    double count = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0;
  };
  std::map<std::string, Scalar> scalars;
  std::map<std::string, HistRow> histograms;

  // query-trace: "kind/reason" verdict buckets
  std::map<std::string, double> verdicts;
  double query_total = 0.0;

  // timeline: series name{labels} -> mean points
  std::map<std::string, std::vector<double>> series;
};

std::string labels_suffix(const Json& labels) {
  if (!labels.is_object() || labels.as_object().empty()) return "";
  std::string out = "{";
  for (const auto& [key, value] : labels.as_object()) {
    if (out.size() > 1) out += ",";
    out += key + "=" + value.as_string();
  }
  return out + "}";
}

/// The accounting families whose counters must reconcile exactly
/// between runs of the same scenario (ids conserved by construction:
/// minted == kept + sampled_out + dropped and friends).
bool is_accounting_counter(const std::string& name) {
  return name.rfind("mntp.", 0) == 0 || name.rfind("obs.", 0) == 0;
}

// ------------------------------------------------------------- loading

Result<Artifact> load_bench(const Json& doc) {
  Artifact art;
  art.kind = DiffKind::kBench;
  if (!doc["workloads"].is_array()) {
    return Error::malformed("bench artifact has no workloads array");
  }
  for (const Json& w : doc["workloads"].as_array()) {
    const std::string& name = w["name"].as_string();
    if (name.empty()) return Error::malformed("bench workload without name");
    art.workloads[name] = {w["median_us"].as_double(),
                           w["mad_us"].as_double()};
  }
  art.doc = doc;
  return art;
}

Result<Artifact> load_profile(const Json& doc) {
  Artifact art;
  art.kind = DiffKind::kProfile;
  if (!doc["traceEvents"].is_array()) {
    return Error::malformed("profile artifact has no traceEvents array");
  }
  for (const Json& e : doc["traceEvents"].as_array()) {
    const std::string& ph = e["ph"].as_string();
    if (ph == "M") {
      if (e["name"].as_string() == "process_name") {
        art.run = e["args"]["name"].as_string();
      }
      continue;
    }
    if (ph != "X") continue;
    // An aggregate event (--profile-out) stands for agg_count spans.
    const Json& args = e["args"];
    Artifact::SpanAgg& agg = art.spans[e["name"].as_string()];
    agg.count += args.has("agg_count") ? args["agg_count"].as_double() : 1.0;
    agg.total_us += e["dur"].as_double();
    agg.self_us += args["self_us"].as_double();
  }
  return art;
}

Artifact load_report(const std::vector<Json>& lines) {
  Artifact art;
  art.kind = DiffKind::kReport;
  for (const Json& line : lines) {
    const std::string& type = line["type"].as_string();
    if (type == "meta") {
      art.run = line["run"].as_string();
    } else if (type == "metric") {
      const std::string& name = line["name"].as_string();
      const std::string key = name + labels_suffix(line["labels"]);
      const std::string& kind = line["kind"].as_string();
      if (kind == "histogram") {
        art.histograms[key] = {static_cast<double>(line["count"].as_int()),
                               line["p50"].as_double(),
                               line["p90"].as_double(),
                               line["p99"].as_double()};
      } else {
        art.scalars[key] = {line["value"].as_double(),
                            kind == "counter" && is_accounting_counter(name)};
      }
    }
  }
  return art;
}

Artifact load_query_trace(const std::vector<Json>& lines) {
  Artifact art;
  art.kind = DiffKind::kQueryTrace;
  for (const Json& line : lines) {
    const std::string& type = line["type"].as_string();
    if (type == "meta") {
      art.run = line["run"].as_string();
      continue;
    }
    if (type != "query") continue;
    // The verdict is the last stage named "verdict" (the tracer
    // guarantees at most one, and last); queries that never finished
    // bucket as "unfinished" exactly like the inspector's table.
    std::string reason = "unfinished";
    const auto& stages = line["stages"].as_array();
    for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
      if ((*it)["stage"].as_string() == "verdict") {
        reason = (*it)["reason"].as_string();
        break;
      }
    }
    art.verdicts[line["kind"].as_string() + "/" + reason] += 1.0;
    art.query_total += 1.0;
  }
  return art;
}

Artifact load_timeline(const std::vector<Json>& lines) {
  Artifact art;
  art.kind = DiffKind::kTimeline;
  for (const Json& line : lines) {
    const std::string& type = line["type"].as_string();
    if (type == "meta") {
      art.run = line["run"].as_string();
      continue;
    }
    if (type != "series") continue;
    std::vector<double> means;
    for (const Json& p : line["points"].as_array()) {
      means.push_back(p.at(2).as_double());  // [t_ns,min,mean,max,last,count]
    }
    art.series[line["name"].as_string() + labels_suffix(line["labels"])] =
        std::move(means);
  }
  return art;
}

/// Parse a classified artifact file into its kind's representation.
Result<Artifact> parse_artifact(const ArtifactFile& file) {
  switch (file.kind) {
    case DiffKind::kBench: return load_bench(file.doc);
    case DiffKind::kProfile: return load_profile(file.doc);
    case DiffKind::kReport: return load_report(file.lines);
    case DiffKind::kQueryTrace: return load_query_trace(file.lines);
    case DiffKind::kTimeline: return load_timeline(file.lines);
  }
  return Error::invalid_argument("unknown artifact kind");
}

Result<Artifact> load_artifact(const std::string& path) {
  auto file = read_artifact(path);
  if (!file.ok()) return file.error();
  auto art = parse_artifact(file.value());
  if (art.ok()) return art;
  return Error{art.error().code, path + ": " + art.error().message};
}

// ------------------------------------------------------------- diffing

/// Sort a section most-significant first: regressions, then other
/// significant entries, by descending score; insignificant entries by
/// descending |delta|. Stable name tiebreak keeps output deterministic.
void rank(DiffSection& section) {
  std::stable_sort(section.entries.begin(), section.entries.end(),
                   [](const DiffEntry& a, const DiffEntry& b) {
                     if (a.regression != b.regression) return a.regression;
                     if (a.significant != b.significant) return a.significant;
                     if (a.score != b.score) return a.score > b.score;
                     const double da = std::fabs(a.delta);
                     const double db = std::fabs(b.delta);
                     if (da != db) return da > db;
                     return a.name < b.name;
                   });
}

void tally(DiffResult& result, const DiffSection& section) {
  for (const DiffEntry& e : section.entries) {
    if (e.significant) ++result.significant;
    if (e.regression) ++result.regressions;
  }
}

/// The bench gate: candidate passes iff
///   cand <= base * (1 + tolerance) + max(abs_floor, 4 * base_mad).
double bench_allowance(double base_median, double base_mad,
                       const DiffOptions& opt) {
  return base_median * opt.tolerance +
         std::max(opt.abs_floor_us, 4.0 * base_mad);
}

/// Within-candidate budgets: both medians come from `cand`, so a
/// budget gates the candidate's own overhead claim, not its speed
/// against the baseline. `before` is the reference workload's median.
DiffSection diff_budgets(const Artifact& cand,
                         const std::vector<BenchBudget>& budgets) {
  DiffSection section{"budgets", {}};
  for (const BenchBudget& budget : budgets) {
    DiffEntry e;
    e.name = budget.spec;
    const auto a_it = cand.workloads.find(budget.a);
    const auto b_it = cand.workloads.find(budget.b);
    if (a_it == cand.workloads.end() || b_it == cand.workloads.end()) {
      e.cls = kRemoved;
      e.significant = e.regression = true;
      e.note = "workload '" +
               (a_it == cand.workloads.end() ? budget.a : budget.b) +
               "' missing from candidate";
      section.entries.push_back(std::move(e));
      continue;
    }
    e.has_before = e.has_after = true;
    e.before = b_it->second.median_us;
    e.after = a_it->second.median_us;
    e.delta = e.after - e.before;
    const double limit = e.before * (1.0 + budget.pct / 100.0);
    const double allowance = limit - e.before;
    e.score = allowance > 0.0 ? e.delta / allowance
                              : (e.delta > 0.0 ? 2.0 : 0.0);
    e.significant = e.regression = e.after > limit;
    e.cls = e.regression ? kChanged : kEqual;
    e.note = core::strformat(
        "%+.2f%%, budget %g%%",
        e.before > 0.0 ? (e.after / e.before - 1.0) * 100.0 : 0.0,
        budget.pct);
    section.entries.push_back(std::move(e));
  }
  rank(section);
  return section;
}

DiffResult diff_bench(const Artifact& a, const Artifact& b,
                      const DiffOptions& opt) {
  DiffResult result;
  result.kind = DiffKind::kBench;
  DiffSection section{"workloads", {}};
  for (const auto& [name, base] : a.workloads) {
    DiffEntry e;
    e.name = name;
    e.has_before = true;
    e.before = base.median_us;
    auto it = b.workloads.find(name);
    if (it == b.workloads.end()) {
      e.cls = kRemoved;
      e.significant = e.regression = true;
      e.note = "missing from candidate";
      section.entries.push_back(std::move(e));
      continue;
    }
    e.has_after = true;
    e.after = it->second.median_us;
    e.delta = e.after - e.before;
    const double allowance = bench_allowance(base.median_us, base.mad_us, opt);
    // Score: how far past (or inside) the allowance the delta landed,
    // in allowance units — >1 means the gate trips.
    e.score = allowance > 0.0 ? e.delta / allowance
                              : (e.delta > 0.0 ? 2.0 : 0.0);
    e.regression = e.after > e.before + allowance;
    e.significant = e.regression || e.before - e.after > allowance;
    e.cls = e.significant ? kChanged : kEqual;
    if (e.significant && !e.regression) e.note = "improvement";
    section.entries.push_back(std::move(e));
  }
  for (const auto& [name, cand] : b.workloads) {
    if (a.workloads.count(name)) continue;
    DiffEntry e;
    e.name = name;
    e.has_after = true;
    e.after = cand.median_us;
    e.cls = kAdded;
    e.note = "new workload, no baseline";
    section.entries.push_back(std::move(e));
  }
  rank(section);
  tally(result, section);
  result.sections.push_back(std::move(section));

  if (!opt.budgets.empty()) {
    DiffSection budgets = diff_budgets(b, opt.budgets);
    tally(result, budgets);
    result.sections.push_back(std::move(budgets));
  }
  for (const char* key : {"compiler", "build_type"}) {
    const std::string& before = a.doc["environment"][key].as_string();
    const std::string& after = b.doc["environment"][key].as_string();
    if (before != after) {
      result.warnings.push_back(core::strformat(
          "environment.%s differs: baseline '%s' vs candidate '%s'", key,
          before.c_str(), after.c_str()));
    }
  }
  return result;
}

DiffResult diff_profile(const Artifact& a, const Artifact& b,
                        const DiffOptions& opt) {
  DiffResult result;
  result.kind = DiffKind::kProfile;
  DiffSection section{"spans", {}};
  // Contribution denominator: total self-time movement across every
  // span present on both sides (self sums to wall, so self deltas are
  // the additive attribution of the end-to-end change).
  double abs_self_delta_sum = 0.0;
  for (const auto& [name, base] : a.spans) {
    auto it = b.spans.find(name);
    if (it != b.spans.end()) {
      abs_self_delta_sum += std::fabs(it->second.self_us - base.self_us);
    }
  }
  for (const auto& [name, base] : a.spans) {
    DiffEntry e;
    e.name = name;
    e.has_before = true;
    e.before = base.self_us;
    auto it = b.spans.find(name);
    if (it == b.spans.end()) {
      e.cls = kRemoved;
      e.note = core::strformat("span gone (was total %.1f us)",
                               base.total_us);
      section.entries.push_back(std::move(e));
      continue;
    }
    e.has_after = true;
    e.after = it->second.self_us;
    e.delta = e.after - e.before;
    e.score = abs_self_delta_sum > 0.0
                  ? std::fabs(e.delta) / abs_self_delta_sum
                  : 0.0;
    const double allowance =
        std::max(opt.abs_floor_us, e.before * opt.tolerance);
    e.significant = std::fabs(e.delta) > allowance;
    e.regression = e.significant && e.delta > 0.0;
    e.cls = e.significant ? kChanged : kEqual;
    e.note = core::strformat(
        "total %.1f -> %.1f us, count %.0f -> %.0f%s", base.total_us,
        it->second.total_us, base.count, it->second.count,
        e.significant && !e.regression ? ", improvement" : "");
    section.entries.push_back(std::move(e));
  }
  for (const auto& [name, cand] : b.spans) {
    if (a.spans.count(name)) continue;
    DiffEntry e;
    e.name = name;
    e.has_after = true;
    e.after = cand.self_us;
    e.cls = kAdded;
    const double allowance = opt.abs_floor_us;
    e.significant = cand.self_us > allowance;
    e.regression = e.significant;  // new span burning real time
    e.note = core::strformat("new span (total %.1f us)", cand.total_us);
    section.entries.push_back(std::move(e));
  }
  rank(section);
  tally(result, section);
  result.sections.push_back(std::move(section));
  return result;
}

/// Generic map diff over named doubles with a relative-tolerance rule;
/// used for report scalars, histogram fields and event counts.
template <typename Significance>
DiffSection diff_named_values(const std::string& title,
                              const std::map<std::string, double>& a,
                              const std::map<std::string, double>& b,
                              Significance significant_fn) {
  DiffSection section{title, {}};
  for (const auto& [name, before] : a) {
    DiffEntry e;
    e.name = name;
    e.has_before = true;
    e.before = before;
    auto it = b.find(name);
    if (it == b.end()) {
      e.cls = kRemoved;
      e.significant = true;
      e.regression = true;
      section.entries.push_back(std::move(e));
      continue;
    }
    e.has_after = true;
    e.after = it->second;
    e.delta = e.after - e.before;
    e.score = e.before != 0.0 ? std::fabs(e.delta / e.before)
                              : (e.delta != 0.0 ? 1.0 : 0.0);
    e.significant = significant_fn(name, e);
    e.regression = e.significant;
    e.cls = e.significant ? kChanged : kEqual;
    section.entries.push_back(std::move(e));
  }
  for (const auto& [name, after] : b) {
    if (a.count(name)) continue;
    DiffEntry e;
    e.name = name;
    e.has_after = true;
    e.after = after;
    e.cls = kAdded;
    e.significant = true;
    e.regression = true;
    section.entries.push_back(std::move(e));
  }
  rank(section);
  return section;
}

DiffResult diff_report(const Artifact& a, const Artifact& b,
                       const DiffOptions& opt) {
  DiffResult result;
  result.kind = DiffKind::kReport;

  // Scalars: accounting counters reconcile exactly (class exact /
  // shifted); everything else uses the relative tolerance.
  DiffSection scalars{"metrics", {}};
  for (const auto& [name, base] : a.scalars) {
    DiffEntry e;
    e.name = name;
    e.has_before = true;
    e.before = base.value;
    auto it = b.scalars.find(name);
    if (it == b.scalars.end()) {
      e.cls = kRemoved;
      e.significant = e.regression = true;
      scalars.entries.push_back(std::move(e));
      continue;
    }
    e.has_after = true;
    e.after = it->second.value;
    e.delta = e.after - e.before;
    if (base.accounting) {
      const bool exact = e.before == e.after;
      e.cls = exact ? kExact : kShifted;
      e.significant = e.regression = !exact;
      e.score = e.before != 0.0 ? std::fabs(e.delta / e.before)
                                : (exact ? 0.0 : 1.0);
      if (!exact) e.note = "accounting counter shifted";
    } else {
      e.score = e.before != 0.0 ? std::fabs(e.delta / e.before)
                                : (e.delta != 0.0 ? 1.0 : 0.0);
      e.significant = e.score > opt.tolerance;
      e.regression = e.significant;
      e.cls = e.significant ? kChanged : kEqual;
    }
    scalars.entries.push_back(std::move(e));
  }
  for (const auto& [name, cand] : b.scalars) {
    if (a.scalars.count(name)) continue;
    DiffEntry e;
    e.name = name;
    e.has_after = true;
    e.after = cand.value;
    e.cls = kAdded;
    e.significant = e.regression = true;
    scalars.entries.push_back(std::move(e));
  }
  rank(scalars);
  tally(result, scalars);
  result.sections.push_back(std::move(scalars));

  // Histograms: count plus the quantile triple, flattened to named
  // values so they rank alongside each other.
  std::map<std::string, double> ha, hb;
  for (const auto& [key, h] : a.histograms) {
    ha[key + ".count"] = h.count;
    ha[key + ".p50"] = h.p50;
    ha[key + ".p90"] = h.p90;
    ha[key + ".p99"] = h.p99;
  }
  for (const auto& [key, h] : b.histograms) {
    hb[key + ".count"] = h.count;
    hb[key + ".p50"] = h.p50;
    hb[key + ".p90"] = h.p90;
    hb[key + ".p99"] = h.p99;
  }
  auto rel_rule = [&opt](const std::string&, const DiffEntry& e) {
    return e.score > opt.tolerance;
  };
  if (!ha.empty() || !hb.empty()) {
    DiffSection hsec = diff_named_values("histograms", ha, hb, rel_rule);
    tally(result, hsec);
    result.sections.push_back(std::move(hsec));
  }
  return result;
}

DiffResult diff_query_trace(const Artifact& a, const Artifact& b,
                            const DiffOptions& opt) {
  DiffResult result;
  result.kind = DiffKind::kQueryTrace;
  DiffSection section{"verdicts", {}};
  const double na = a.query_total, nb = b.query_total;
  std::map<std::string, std::pair<double, double>> buckets;
  for (const auto& [key, n] : a.verdicts) buckets[key].first = n;
  for (const auto& [key, n] : b.verdicts) buckets[key].second = n;
  for (const auto& [key, counts] : buckets) {
    DiffEntry e;
    e.name = key;
    e.has_before = counts.first > 0.0 || a.verdicts.count(key) > 0;
    e.has_after = counts.second > 0.0 || b.verdicts.count(key) > 0;
    e.before = counts.first;
    e.after = counts.second;
    e.delta = e.after - e.before;
    // Two-proportion z on the bucket's share of all queries: the
    // magnitude-aware "did this reason's share really move" test.
    const double pa = na > 0.0 ? counts.first / na : 0.0;
    const double pb = nb > 0.0 ? counts.second / nb : 0.0;
    if (na > 0.0 && nb > 0.0) {
      const double pooled = (counts.first + counts.second) / (na + nb);
      const double var = pooled * (1.0 - pooled) * (1.0 / na + 1.0 / nb);
      e.score = var > 0.0 ? std::fabs(pb - pa) / std::sqrt(var) : 0.0;
    } else {
      e.score = pa != pb ? opt.sigma + 1.0 : 0.0;
    }
    e.significant = e.score > opt.sigma;
    e.regression = e.significant;
    if (!a.verdicts.count(key)) {
      e.cls = kAdded;
    } else if (!b.verdicts.count(key)) {
      e.cls = kRemoved;
    } else {
      e.cls = e.significant ? kShifted : kEqual;
    }
    e.note = core::strformat("share %.2f%% -> %.2f%%", pa * 100.0,
                             pb * 100.0);
    section.entries.push_back(std::move(e));
  }
  rank(section);
  tally(result, section);
  result.sections.push_back(std::move(section));
  return result;
}

DiffResult diff_timeline(const Artifact& a, const Artifact& b,
                         const DiffOptions& opt) {
  DiffResult result;
  result.kind = DiffKind::kTimeline;
  DiffSection section{"series", {}};
  for (const auto& [name, base] : a.series) {
    DiffEntry e;
    e.name = name;
    e.has_before = true;
    auto it = b.series.find(name);
    if (it == b.series.end()) {
      e.cls = kRemoved;
      e.significant = e.regression = true;
      e.note = "series gone";
      section.entries.push_back(std::move(e));
      continue;
    }
    e.has_after = true;
    const std::vector<double>& va = base;
    const std::vector<double>& vb = it->second;
    // Resample both mean-series onto a common grid (the shorter
    // length) by bucket-averaging, then score the pointwise residual
    // RMS against A's own spread — a unitless divergence that reads
    // the same for offsets in ms and queue depths in events.
    const std::size_t grid = std::min(va.size(), vb.size());
    auto resample = [grid](const std::vector<double>& v, std::size_t i) {
      const std::size_t begin = i * v.size() / grid;
      const std::size_t end = std::max(begin + 1, (i + 1) * v.size() / grid);
      double acc = 0.0;
      for (std::size_t k = begin; k < end; ++k) acc += v[k];
      return acc / static_cast<double>(end - begin);
    };
    double rss = 0.0;
    core::RunningStats spread_a;
    double mean_a = 0.0, mean_b = 0.0;
    for (std::size_t i = 0; i < grid; ++i) {
      const double xa = resample(va, i);
      const double xb = resample(vb, i);
      rss += (xb - xa) * (xb - xa);
      spread_a.add(xa);
      mean_a += xa;
      mean_b += xb;
    }
    if (grid > 0) {
      mean_a /= static_cast<double>(grid);
      mean_b /= static_cast<double>(grid);
      const double rms = std::sqrt(rss / static_cast<double>(grid));
      // Normalizer: A's stddev when it varies, |mean| as the fallback
      // for (near-)constant series, 1.0 for all-zero series.
      double norm = spread_a.stddev();
      if (norm <= 0.0) norm = std::fabs(mean_a);
      if (norm <= 0.0) norm = 1.0;
      e.score = rms / norm;
    }
    e.before = mean_a;
    e.after = mean_b;
    e.delta = mean_b - mean_a;
    e.significant = e.score > opt.divergence;
    e.regression = e.significant;
    e.cls = e.significant ? kChanged : kEqual;
    e.note = core::strformat("%zu/%zu points on a %zu-point grid",
                             va.size(), vb.size(), grid);
    section.entries.push_back(std::move(e));
  }
  for (const auto& [name, cand] : b.series) {
    if (a.series.count(name)) continue;
    DiffEntry e;
    e.name = name;
    e.has_after = true;
    e.cls = kAdded;
    e.significant = e.regression = true;
    e.note = "new series";
    section.entries.push_back(std::move(e));
  }
  rank(section);
  tally(result, section);
  result.sections.push_back(std::move(section));
  return result;
}

std::string fmt_opt(bool present, double v) {
  return present ? core::fmt_double(v) : std::string("-");
}

}  // namespace

core::Result<BenchBudget> parse_bench_budget(std::string_view spec) {
  const auto bad = [spec] {
    return Error::invalid_argument("bad budget '" + std::string(spec) +
                                   "' (want A:B:PCT)");
  };
  const std::size_t c1 = spec.find(':');
  const std::size_t c2 =
      c1 == std::string_view::npos ? c1 : spec.find(':', c1 + 1);
  if (c2 == std::string_view::npos ||
      spec.find(':', c2 + 1) != std::string_view::npos) {
    return bad();
  }
  BenchBudget budget{.spec = std::string(spec),
                     .a = std::string(spec.substr(0, c1)),
                     .b = std::string(spec.substr(c1 + 1, c2 - c1 - 1))};
  const std::string pct(spec.substr(c2 + 1));
  char* end = nullptr;
  budget.pct = std::strtod(pct.c_str(), &end);
  if (budget.a.empty() || budget.b.empty() || pct.empty() || *end != '\0' ||
      !std::isfinite(budget.pct)) {
    return bad();
  }
  return budget;
}

const char* diff_kind_name(DiffKind kind) {
  switch (kind) {
    case DiffKind::kBench: return "bench";
    case DiffKind::kProfile: return "profile";
    case DiffKind::kReport: return "report";
    case DiffKind::kQueryTrace: return "query-trace";
    case DiffKind::kTimeline: return "timeline";
  }
  return "unknown";
}

core::Result<ArtifactFile> read_artifact(const std::string& path) {
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

  ArtifactFile file;
  if (auto doc = Json::parse(content); doc.ok()) {
    file.doc = doc.value();
    const std::string& kind = file.doc["kind"].as_string();
    if (file.doc.has("traceEvents")) {
      file.kind = DiffKind::kProfile;
      return file;
    }
    if (kind == "mntp_perf_suite") {
      file.kind = DiffKind::kBench;
      return file;
    }
    // A JSONL artifact with no body (no query, series or metric yet) is
    // a single meta line, i.e. whole-file JSON too: classify it below.
    const bool meta_only =
        file.doc["type"].as_string() == "meta" &&
        (kind.empty() || kind == "mntp_query_trace" ||
         kind == "mntp_timeline");
    if (!meta_only) {
      return Error::invalid_argument(
          kind.empty() ? path + ": unrecognized JSON document"
                       : path + ": unsupported artifact kind '" + kind + "'");
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
      file.lines.push_back(std::move(parsed).take());
    } else if (end > tail) {
      return Error::malformed(core::strformat(
          "%s: truncated artifact (last line %zu is not valid JSON)",
          path.c_str(), line_no));
    } else {
      return Error::invalid_argument(
          core::strformat("%s:%zu: %s", path.c_str(), line_no,
                          parsed.error().message.c_str()));
    }
  }
  file.doc = file.lines.front();
  if (file.doc["type"].as_string() != "meta") {
    return Error::invalid_argument(
        path + ": not a bench, profile, report, query-trace or timeline "
               "artifact");
  }
  const std::string& kind = file.doc["kind"].as_string();
  file.kind = kind == "mntp_query_trace" ? DiffKind::kQueryTrace
              : kind == "mntp_timeline"  ? DiffKind::kTimeline
                                         : DiffKind::kReport;
  return file;
}

core::Result<DiffResult> diff_files(const std::string& a_path,
                                    const std::string& b_path,
                                    const DiffOptions& options) {
  auto a = load_artifact(a_path);
  if (!a.ok()) return a.error();
  auto b = load_artifact(b_path);
  if (!b.ok()) return b.error();
  if (a.value().kind != b.value().kind) {
    return Error::invalid_argument(core::strformat(
        "artifact kinds differ: %s is %s, %s is %s", a_path.c_str(),
        diff_kind_name(a.value().kind), b_path.c_str(),
        diff_kind_name(b.value().kind)));
  }
  if (!options.budgets.empty() && a.value().kind != DiffKind::kBench) {
    return Error::invalid_argument(
        core::strformat("budgets apply to bench artifacts only, not %s",
                        diff_kind_name(a.value().kind)));
  }
  DiffResult result;
  switch (a.value().kind) {
    case DiffKind::kBench:
      result = diff_bench(a.value(), b.value(), options);
      break;
    case DiffKind::kProfile:
      result = diff_profile(a.value(), b.value(), options);
      break;
    case DiffKind::kReport:
      result = diff_report(a.value(), b.value(), options);
      break;
    case DiffKind::kQueryTrace:
      result = diff_query_trace(a.value(), b.value(), options);
      break;
    case DiffKind::kTimeline:
      result = diff_timeline(a.value(), b.value(), options);
      break;
  }
  result.a_path = a_path;
  result.b_path = b_path;
  result.a_run = a.value().run;
  result.b_run = b.value().run;
  return result;
}

core::Result<std::string> render_perf_delta(const std::string& a_path,
                                            const std::string& b_path) {
  auto a = load_artifact(a_path);
  if (!a.ok()) return a.error();
  auto b = load_artifact(b_path);
  if (!b.ok()) return b.error();
  if (a.value().kind != DiffKind::kBench ||
      b.value().kind != DiffKind::kBench) {
    return Error::invalid_argument(core::strformat(
        "a perf delta needs two bench artifacts, got %s and %s",
        diff_kind_name(a.value().kind), diff_kind_name(b.value().kind)));
  }
  const Artifact& base = a.value();
  const Artifact& cand = b.value();
  std::string out;
  core::JsonWriter w(out, 2);
  w.begin_object()
      .kv("schema_version", 1)
      .kv("kind", "mntp_perf_delta")
      .kv("description",
          core::strformat("perf_suite medians: candidate vs baseline (reps "
                          "%lld, warmup %lld), generated by mntp-inspect "
                          "diff --write-delta",
                          static_cast<long long>(cand.doc["reps"].as_int()),
                          static_cast<long long>(cand.doc["warmup"].as_int())));
  // The candidate's flat environment block (strings and numbers).
  w.key("environment").begin_object();
  for (const auto& [key, value] : cand.doc["environment"].as_object()) {
    if (value.is_number()) {
      w.kv(key, value.as_double());
    } else {
      w.kv(key, value.as_string());
    }
  }
  w.end_object();
  w.key("workloads").begin_array();
  // Candidate order: the record documents what the candidate measures.
  for (const Json& workload : cand.doc["workloads"].as_array()) {
    const std::string& name = workload["name"].as_string();
    const Artifact::Workload& after = cand.workloads.at(name);
    w.begin_object().kv("name", name);
    w.kv("after_median_us", after.median_us);
    w.kv("after_mad_us", after.mad_us);
    const auto it = base.workloads.find(name);
    if (it == base.workloads.end()) {
      w.key("before_median_us").null().kv("note", "new workload in this PR");
    } else {
      w.kv("before_median_us", it->second.median_us);
      w.kv("before_mad_us", it->second.mad_us);
      // Rounded to 3 decimals, as in the committed records.
      const double speedup =
          after.median_us > 0.0
              ? std::strtod(core::strformat("%.3f", it->second.median_us /
                                                        after.median_us)
                                .c_str(),
                            nullptr)
              : std::nan("");
      w.kv("speedup", speedup);
    }
    w.end_object();
  }
  for (const Json& workload : base.doc["workloads"].as_array()) {
    const std::string& name = workload["name"].as_string();
    if (cand.workloads.count(name)) continue;
    const Artifact::Workload& before = base.workloads.at(name);
    w.begin_object().kv("name", name);
    w.key("after_median_us").null();
    w.kv("before_median_us", before.median_us);
    w.kv("before_mad_us", before.mad_us);
    w.kv("note", "workload removed in this PR").end_object();
  }
  w.end_array().end_object();
  out += "\n";
  return out;
}

std::string render_diff_text(const DiffResult& result,
                             const DiffOptions& options) {
  std::string out = core::strformat(
      "diff (%s): %s -> %s\n", diff_kind_name(result.kind),
      result.a_path.c_str(), result.b_path.c_str());
  if (!result.a_run.empty() || !result.b_run.empty()) {
    out += core::strformat("  runs: %s -> %s\n", result.a_run.c_str(),
                           result.b_run.c_str());
  }
  for (const DiffSection& section : result.sections) {
    core::TextTable table(
        {section.title, "before", "after", "delta", "score", "class", "note"});
    std::size_t shown = 0;
    for (const DiffEntry& e : section.entries) {
      if (shown >= options.top) break;
      ++shown;
      table.add_row({e.name, fmt_opt(e.has_before, e.before),
                     fmt_opt(e.has_after, e.after),
                     core::fmt_double(e.delta),
                     core::fmt_double(e.score, 3),
                     std::string(e.cls) + (e.regression ? " !" : ""),
                     e.note});
    }
    out += core::strformat("\n%s", table.render().c_str());
    if (section.entries.size() > shown) {
      out += core::strformat("  ... %zu more (raise --top)\n",
                             section.entries.size() - shown);
    }
  }
  out += core::strformat(
      "\nverdict: %zu significant delta(s), %zu regression(s) -> exit %d\n",
      result.significant, result.regressions, result.exit_code());
  return out;
}

std::string render_diff_json(const DiffResult& result,
                             const DiffOptions& options) {
  std::string out;
  core::JsonWriter w(out, 2);
  w.begin_object()
      .kv("schema_version", 1)
      .kv("kind", "mntp_diff")
      .kv("artifact_kind", diff_kind_name(result.kind));
  w.key("a").begin_object().kv("path", result.a_path)
      .kv("run", result.a_run).end_object();
  w.key("b").begin_object().kv("path", result.b_path)
      .kv("run", result.b_run).end_object();
  w.key("options").begin_object()
      .kv("tolerance", options.tolerance)
      .kv("abs_floor_us", options.abs_floor_us)
      .kv("sigma", options.sigma)
      .kv("divergence", options.divergence)
      .end_object();
  w.kv("significant", static_cast<std::int64_t>(result.significant))
      .kv("regressions", static_cast<std::int64_t>(result.regressions))
      .kv("exit_hint", result.exit_code());
  w.key("sections").begin_array();
  for (const DiffSection& section : result.sections) {
    w.begin_object().kv("title", section.title);
    w.key("entries").begin_array();
    for (const DiffEntry& e : section.entries) {
      w.begin_object().kv("name", e.name);
      if (e.has_before) w.kv("before", e.before); else w.key("before").null();
      if (e.has_after) w.kv("after", e.after); else w.key("after").null();
      w.kv("delta", e.delta)
          .kv("score", e.score)
          .kv("significant", e.significant)
          .kv("regression", e.regression)
          .kv("class", e.cls)
          .kv("note", e.note)
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  out += "\n";
  return out;
}

}  // namespace mntp::obs
