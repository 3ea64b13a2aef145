#include "obs/diff.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <utility>

#include "core/format.h"
#include "core/json.h"
#include "core/json_writer.h"
#include "core/stats.h"
#include "core/table.h"

namespace mntp::obs {
namespace {

using core::Error;
using core::Result;

using namespace diff_class;

/// The accounting families whose counters must reconcile exactly
/// between runs of the same scenario (ids conserved by construction:
/// minted == kept + sampled_out + dropped and friends).
bool is_accounting_counter(const std::string& name) {
  return name.rfind("mntp.", 0) == 0 || name.rfind("obs.", 0) == 0;
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

/// Append a ranked section and count its flagged entries.
void add_section(DiffResult& result, DiffSection section) {
  for (const DiffEntry& e : section.entries) {
    if (e.significant) ++result.significant;
    if (e.regression) ++result.regressions;
  }
  result.sections.push_back(std::move(section));
}

/// The outer join every section is built by: keys only in A become
/// `removed` entries, keys in both are compared, keys only in B become
/// `added` entries. The join sets the name, the presence flags and the
/// one-sided classes; the kind's `compare(e, a, b)` and its policy for
/// `removed(e, a)` and `added(e, b)` fill values, score, significance,
/// the both-sides class and the note. The section comes back ranked.
template <typename V, typename Compare, typename Removed, typename Added>
DiffSection join(std::string title, const std::map<std::string, V>& a,
                 const std::map<std::string, V>& b, Compare compare,
                 Removed removed, Added added) {
  DiffSection section{std::move(title), {}};
  for (const auto& [name, before] : a) {
    DiffEntry e;
    e.name = name;
    e.has_before = true;
    if (const auto it = b.find(name); it != b.end()) {
      e.has_after = true;
      compare(e, before, it->second);
    } else {
      e.cls = kRemoved;
      removed(e, before);
    }
    section.entries.push_back(std::move(e));
  }
  for (const auto& [name, after] : b) {
    if (a.count(name)) continue;
    DiffEntry e;
    e.name = name;
    e.has_after = true;
    e.cls = kAdded;
    added(e, after);
    section.entries.push_back(std::move(e));
  }
  rank(section);
  return section;
}

/// Set both sides of a compared entry.
void set_values(DiffEntry& e, double before, double after) {
  e.before = before;
  e.after = after;
  e.delta = after - before;
}

/// |delta / before|, or 1 for any move away from a zero baseline.
double relative_change(const DiffEntry& e) {
  return e.before != 0.0 ? std::fabs(e.delta / e.before)
                         : (e.delta != 0.0 ? 1.0 : 0.0);
}

/// Delta in allowance units: > 1 means the gate trips.
double allowance_score(double delta, double allowance) {
  return allowance > 0.0 ? delta / allowance : (delta > 0.0 ? 2.0 : 0.0);
}

/// `name{k=v,...}`, or the bare name without labels: the key a metric
/// or series diffs under.
std::string keyed_name(const std::string& name, const ArtifactLabels& labels) {
  return labels.empty() ? name : name + "{" + format_labels(labels) + "}";
}

std::map<std::string, const BenchWorkload*> by_name(const BenchArtifact& art) {
  std::map<std::string, const BenchWorkload*> out;
  for (const BenchWorkload& w : art.workloads) out[w.name] = &w;
  return out;
}

/// Within-candidate budgets: both medians come from `cand`, so a
/// budget gates the candidate's own overhead claim, not its speed
/// against the baseline. `before` is the reference workload's median.
DiffSection diff_budgets(const BenchArtifact& cand,
                         const std::vector<BenchBudget>& budgets) {
  const auto workloads = by_name(cand);
  DiffSection section{"budgets", {}};
  for (const BenchBudget& budget : budgets) {
    DiffEntry e;
    e.name = budget.spec;
    const auto a_it = workloads.find(budget.a);
    const auto b_it = workloads.find(budget.b);
    if (a_it == workloads.end() || b_it == workloads.end()) {
      e.cls = kRemoved;
      e.significant = e.regression = true;
      e.note = "workload '" +
               (a_it == workloads.end() ? budget.a : budget.b) +
               "' missing from candidate";
      section.entries.push_back(std::move(e));
      continue;
    }
    e.has_before = e.has_after = true;
    set_values(e, b_it->second->median_us, a_it->second->median_us);
    const double limit = e.before * (1.0 + budget.pct / 100.0);
    e.score = allowance_score(e.delta, limit - e.before);
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

/// The bench gate: candidate passes iff
///   cand <= base * (1 + tolerance) + max(abs_floor, 4 * base_mad).
/// A baseline workload missing from the candidate regresses; a
/// candidate-only one is noted.
DiffResult diff_bench(const BenchArtifact& a, const BenchArtifact& b,
                      const DiffOptions& opt) {
  DiffResult result;
  add_section(result, join(
      "workloads", by_name(a), by_name(b),
      [&opt](DiffEntry& e, const BenchWorkload* base,
             const BenchWorkload* cand) {
        set_values(e, base->median_us, cand->median_us);
        const double allowance =
            base->median_us * opt.tolerance +
            std::max(opt.abs_floor_us, 4.0 * base->mad_us);
        e.score = allowance_score(e.delta, allowance);
        e.regression = e.after > e.before + allowance;
        e.significant = e.regression || e.before - e.after > allowance;
        e.cls = e.significant ? kChanged : kEqual;
        if (e.significant && !e.regression) e.note = "improvement";
      },
      [](DiffEntry& e, const BenchWorkload* base) {
        e.before = base->median_us;
        e.significant = e.regression = true;
        e.note = "missing from candidate";
      },
      [](DiffEntry& e, const BenchWorkload* cand) {
        e.after = cand->median_us;
        e.note = "new workload, no baseline";
      }));
  if (!opt.budgets.empty()) add_section(result, diff_budgets(b, opt.budgets));
  for (const char* key : {"compiler", "build_type"}) {
    const std::string& before = a.environment[key].as_string();
    const std::string& after = b.environment[key].as_string();
    if (before != after) {
      result.warnings.push_back(core::strformat(
          "environment.%s differs: baseline '%s' vs candidate '%s'", key,
          before.c_str(), after.c_str()));
    }
  }
  return result;
}

/// Spans compare on self time, ranked by contribution; only increases
/// beyond the allowance regress. A vanished span is noted; a new one
/// regresses when it burns more than the absolute floor.
DiffResult diff_profile(const ProfileArtifact& a, const ProfileArtifact& b,
                        const DiffOptions& opt) {
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
  DiffResult result;
  add_section(result, join(
      "spans", a.spans, b.spans,
      [&](DiffEntry& e, const SpanAggregate& base, const SpanAggregate& cand) {
        set_values(e, base.self_us, cand.self_us);
        e.score = abs_self_delta_sum > 0.0
                      ? std::fabs(e.delta) / abs_self_delta_sum
                      : 0.0;
        e.significant = std::fabs(e.delta) >
                        std::max(opt.abs_floor_us, e.before * opt.tolerance);
        e.regression = e.significant && e.delta > 0.0;
        e.cls = e.significant ? kChanged : kEqual;
        e.note = core::strformat(
            "total %.1f -> %.1f us, count %.0f -> %.0f%s", base.total_us,
            cand.total_us, base.count, cand.count,
            e.significant && !e.regression ? ", improvement" : "");
      },
      [](DiffEntry& e, const SpanAggregate& base) {
        e.before = base.self_us;
        e.note = core::strformat("span gone (was total %.1f us)",
                                 base.total_us);
      },
      [&opt](DiffEntry& e, const SpanAggregate& cand) {
        e.after = cand.self_us;
        e.significant = e.regression = cand.self_us > opt.abs_floor_us;
        e.note = core::strformat("new span (total %.1f us)", cand.total_us);
      }));
  return result;
}

/// Scalars keyed by name{labels}: accounting counters reconcile exactly
/// (class exact / shifted), everything else and the flattened histogram
/// fields use the relative tolerance.
DiffResult diff_report(const ReportArtifact& a, const ReportArtifact& b,
                       const DiffOptions& opt) {
  // Per side: scalars, histograms flattened to key.{count,p50,p90,p99},
  // and whether the scalar is an accounting counter (A's flag decides).
  std::map<std::string, double> scalars[2], histograms[2];
  std::map<std::string, bool> accounting;
  for (int side = 0; side < 2; ++side) {
    for (const ReportMetric& m : (side == 0 ? a : b).metrics) {
      const std::string key = keyed_name(m.name, m.labels);
      if (m.kind != "histogram") {
        scalars[side][key] = m.value;
        if (side == 0) {
          accounting[key] = m.kind == "counter" && is_accounting_counter(m.name);
        }
        continue;
      }
      std::map<std::string, double>& h = histograms[side];
      h[key + ".count"] = static_cast<double>(m.count);
      h[key + ".p50"] = m.p50;
      h[key + ".p90"] = m.p90;
      h[key + ".p99"] = m.p99;
    }
  }
  const auto relative = [&opt](DiffEntry& e, double before, double after) {
    set_values(e, before, after);
    e.score = relative_change(e);
    e.significant = e.regression = e.score > opt.tolerance;
    e.cls = e.significant ? kChanged : kEqual;
  };
  const auto removed = [](DiffEntry& e, double before) {
    e.before = before;
    e.significant = e.regression = true;
  };
  const auto added = [](DiffEntry& e, double after) {
    e.after = after;
    e.significant = e.regression = true;
  };
  DiffResult result;
  add_section(result, join(
      "metrics", scalars[0], scalars[1],
      [&](DiffEntry& e, double before, double after) {
        relative(e, before, after);
        if (!accounting.at(e.name)) return;
        e.cls = e.before == e.after ? kExact : kShifted;
        e.significant = e.regression = e.before != e.after;
        if (e.regression) e.note = "accounting counter shifted";
      },
      removed, added));
  if (!histograms[0].empty() || !histograms[1].empty()) {
    add_section(result, join("histograms", histograms[0], histograms[1],
                             relative, removed, added));
  }
  return result;
}

/// Verdict buckets ("kind/reason") compared as shares of all queries
/// with a two-proportion z score; a bucket on one side only is scored
/// against a zero count on the other.
DiffResult diff_query_trace(const QueryTraceArtifact& a,
                            const QueryTraceArtifact& b,
                            const DiffOptions& opt) {
  const auto buckets = [](const QueryTraceArtifact& art) {
    std::map<std::string, double> out;
    for (const TraceQuery& q : art.queries) out[q.kind + "/" + q.verdict] += 1;
    return out;
  };
  const double na = static_cast<double>(a.queries.size());
  const double nb = static_cast<double>(b.queries.size());
  const auto shift = [&](DiffEntry& e, double before, double after) {
    set_values(e, before, after);
    // Two-proportion z on the bucket's share of all queries: the
    // magnitude-aware "did this reason's share really move" test.
    const double pa = na > 0.0 ? before / na : 0.0;
    const double pb = nb > 0.0 ? after / nb : 0.0;
    if (na > 0.0 && nb > 0.0) {
      const double pooled = (before + after) / (na + nb);
      const double var = pooled * (1.0 - pooled) * (1.0 / na + 1.0 / nb);
      e.score = var > 0.0 ? std::fabs(pb - pa) / std::sqrt(var) : 0.0;
    } else {
      e.score = pa != pb ? opt.sigma + 1.0 : 0.0;
    }
    e.significant = e.regression = e.score > opt.sigma;
    e.note = core::strformat("share %.2f%% -> %.2f%%", pa * 100.0,
                             pb * 100.0);
  };
  DiffResult result;
  add_section(result, join(
      "verdicts", buckets(a), buckets(b),
      [&shift](DiffEntry& e, double before, double after) {
        shift(e, before, after);
        e.cls = e.significant ? kShifted : kEqual;
      },
      [&shift](DiffEntry& e, double before) { shift(e, before, 0.0); },
      [&shift](DiffEntry& e, double after) { shift(e, 0.0, after); }));
  return result;
}

/// Per-series divergence of the mean series; a series on one side only
/// is a regression.
DiffResult diff_timeline(const TimelineArtifact& a, const TimelineArtifact& b,
                         const DiffOptions& opt) {
  const auto keyed = [](const TimelineArtifact& art) {
    std::map<std::string, const std::vector<double>*> out;
    for (const TimelineSeries& s : art.series) {
      out[keyed_name(s.name, s.labels)] = &s.mean;
    }
    return out;
  };
  DiffResult result;
  add_section(result, join(
      "series", keyed(a), keyed(b),
      [&opt](DiffEntry& e, const std::vector<double>* va,
             const std::vector<double>* vb) {
        // Resample both mean-series onto a common grid (the shorter
        // length) by bucket-averaging, then score the pointwise residual
        // RMS against A's own spread — a unitless divergence that reads
        // the same for offsets in ms and queue depths in events.
        const std::size_t grid = std::min(va->size(), vb->size());
        double rss = 0.0;
        core::RunningStats spread_a;
        double mean_a = 0.0, mean_b = 0.0;
        for (std::size_t i = 0; i < grid; ++i) {
          const double xa = bucket_mean(*va, i, grid);
          const double xb = bucket_mean(*vb, i, grid);
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
        set_values(e, mean_a, mean_b);
        e.significant = e.regression = e.score > opt.divergence;
        e.cls = e.significant ? kChanged : kEqual;
        e.note = core::strformat("%zu/%zu points on a %zu-point grid",
                                 va->size(), vb->size(), grid);
      },
      [](DiffEntry& e, const std::vector<double>*) {
        e.significant = e.regression = true;
        e.note = "series gone";
      },
      [](DiffEntry& e, const std::vector<double>*) {
        e.significant = e.regression = true;
        e.note = "new series";
      }));
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

std::string format_labels(const ArtifactLabels& labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out += ",";
    out += key + "=" + value;
  }
  return out;
}

double bucket_mean(const std::vector<double>& v, std::size_t i,
                   std::size_t buckets) {
  const std::size_t begin = i * v.size() / buckets;
  const std::size_t end = std::max(begin + 1, (i + 1) * v.size() / buckets);
  double acc = 0.0;
  for (std::size_t k = begin; k < end; ++k) acc += v[k];
  return acc / static_cast<double>(end - begin);
}

core::Result<ArtifactPair> read_pair(const std::string& a_path,
                                     const std::string& b_path) {
  auto read_a = read_artifact(a_path);
  if (!read_a.ok()) return read_a.error();
  auto read_b = read_artifact(b_path);
  if (!read_b.ok()) return read_b.error();
  if (read_a.value().kind != read_b.value().kind) {
    return Error::invalid_argument(core::strformat(
        "artifact kinds differ: %s is %s, %s is %s", a_path.c_str(),
        artifact_kind_name(read_a.value().kind), b_path.c_str(),
        artifact_kind_name(read_b.value().kind)));
  }
  return ArtifactPair{.a_path = a_path,
                      .b_path = b_path,
                      .a = std::move(read_a.value()),
                      .b = std::move(read_b.value())};
}

core::Result<DiffResult> diff_pair(const ArtifactPair& pair,
                                   const DiffOptions& options) {
  const ArtifactFile& a = pair.a;
  const ArtifactFile& b = pair.b;
  if (!options.budgets.empty() && a.kind != ArtifactKind::kBench) {
    return Error::invalid_argument(
        core::strformat("budgets apply to bench artifacts only, not %s",
                        artifact_kind_name(a.kind)));
  }
  DiffResult result;
  switch (a.kind) {
    case ArtifactKind::kBench:
      result = diff_bench(a.bench, b.bench, options);
      break;
    case ArtifactKind::kProfile:
      result = diff_profile(a.profile, b.profile, options);
      break;
    case ArtifactKind::kReport:
      result = diff_report(a.report, b.report, options);
      break;
    case ArtifactKind::kQueryTrace:
      result = diff_query_trace(a.trace, b.trace, options);
      break;
    case ArtifactKind::kTimeline:
      result = diff_timeline(a.timeline, b.timeline, options);
      break;
    case ArtifactKind::kDiff:
    case ArtifactKind::kFleet:
    case ArtifactKind::kPerfDelta:
      break;  // read_artifact decodes none of these
  }
  result.kind = a.kind;
  result.a_path = pair.a_path;
  result.b_path = pair.b_path;
  result.a_run = a.run;
  result.b_run = b.run;
  return result;
}

core::Result<std::string> render_perf_delta(const ArtifactPair& pair) {
  if (pair.a.kind != ArtifactKind::kBench ||
      pair.b.kind != ArtifactKind::kBench) {
    return Error::invalid_argument(core::strformat(
        "a perf delta needs two bench artifacts, got %s and %s",
        artifact_kind_name(pair.a.kind), artifact_kind_name(pair.b.kind)));
  }
  const BenchArtifact& base = pair.a.bench;
  const BenchArtifact& cand = pair.b.bench;
  const auto before = by_name(base);
  const auto after = by_name(cand);
  std::string out;
  core::JsonWriter w(out, 2);
  w.begin_object()
      .kv("schema_version", 1)
      .kv("kind", "mntp_perf_delta")
      .kv("description",
          core::strformat("perf_suite medians: candidate vs baseline (reps "
                          "%lld, warmup %lld), generated by mntp-inspect "
                          "diff --write-delta",
                          static_cast<long long>(cand.reps),
                          static_cast<long long>(cand.warmup)));
  // The candidate's flat environment block (strings and numbers).
  w.key("environment").begin_object();
  for (const auto& [key, value] : cand.environment.as_object()) {
    if (value.is_number()) {
      w.kv(key, value.as_double());
    } else {
      w.kv(key, value.as_string());
    }
  }
  w.end_object();
  w.key("workloads").begin_array();
  // Candidate order: the record documents what the candidate measures.
  for (const BenchWorkload& workload : cand.workloads) {
    const BenchWorkload& now = *after.at(workload.name);
    w.begin_object().kv("name", now.name);
    w.kv("after_median_us", now.median_us);
    w.kv("after_mad_us", now.mad_us);
    const auto it = before.find(now.name);
    if (it == before.end()) {
      w.key("before_median_us").null().kv("note", "new workload in this PR");
    } else {
      w.kv("before_median_us", it->second->median_us);
      w.kv("before_mad_us", it->second->mad_us);
      // Rounded to 3 decimals, as in the committed records.
      const double speedup =
          now.median_us > 0.0
              ? std::strtod(core::strformat("%.3f", it->second->median_us /
                                                        now.median_us)
                                .c_str(),
                            nullptr)
              : std::nan("");
      w.kv("speedup", speedup);
    }
    w.end_object();
  }
  for (const BenchWorkload& workload : base.workloads) {
    if (after.count(workload.name)) continue;
    const BenchWorkload& was = *before.at(workload.name);
    w.begin_object().kv("name", was.name);
    w.key("after_median_us").null();
    w.kv("before_median_us", was.median_us);
    w.kv("before_mad_us", was.mad_us);
    w.kv("note", "workload removed in this PR").end_object();
  }
  w.end_array().end_object();
  out += "\n";
  return out;
}

std::string render_diff_text(const DiffResult& result,
                             const DiffOptions& options) {
  std::string out = core::strformat(
      "diff (%s): %s -> %s\n", artifact_kind_name(result.kind),
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
      .kv("artifact_kind", artifact_kind_name(result.kind));
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
