// Cross-run diff engine (obs/diff.h): per-kind significance semantics,
// the bench gate math and budgets, the perf delta record, profile span
// attribution (plain and aggregate events), accounting
// reconciliation classes, query-trace share shifts, timeline divergence
// scoring, and the load/kind-mismatch error paths. All fixtures are
// written to gtest's temp dir so the suite runs from any CWD.
#include "obs/diff.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "core/json.h"

namespace mntp::obs {
namespace {

std::string write_file(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "obs_diff_" + name;
  std::ofstream out(path);
  out << content;
  EXPECT_TRUE(out.good()) << path;
  return path;
}

std::string bench_doc(double engine_median, double engine_mad,
                      bool with_tuner = true,
                      const std::string& compiler = "gcc") {
  std::string doc =
      "{\"schema_version\":1,\"kind\":\"mntp_perf_suite\",\"reps\":3,"
      "\"warmup\":1,\"environment\":{\"compiler\":\"" + compiler +
      "\",\"build_type\":\"Release\"},"
      "\"workloads\":[{\"name\":\"engine_round\",\"median_us\":" +
      std::to_string(engine_median) +
      ",\"mad_us\":" + std::to_string(engine_mad) + "}";
  if (with_tuner) {
    doc += ",{\"name\":\"tuner_grid_slice\",\"median_us\":200.0,"
           "\"mad_us\":5.0}";
  }
  return doc + "]}";
}

std::string profile_doc(const std::string& run, double round_dur,
                        double round_self) {
  std::string doc =
      "{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"process_name\","
      "\"args\":{\"name\":\"" + run + "\"}}";
  for (int i = 0; i < 4; ++i) {
    doc += ",{\"ph\":\"X\",\"name\":\"mntp.engine.round\",\"ts\":" +
           std::to_string(i * 1000) + ",\"dur\":" + std::to_string(round_dur) +
           ",\"args\":{\"self_us\":" + std::to_string(round_self) + "}}";
    doc += ",{\"ph\":\"X\",\"name\":\"ntp.query_engine.exchange\",\"ts\":" +
           std::to_string(i * 1000 + 10) +
           ",\"dur\":20,\"args\":{\"self_us\":20}}";
  }
  doc += ",{\"ph\":\"X\",\"name\":\"sim.run\",\"ts\":0,\"dur\":5000,"
         "\"args\":{\"self_us\":100}}]}";
  return doc;
}

std::string report_doc(double minted, double drift, bool with_extra) {
  std::string doc =
      "{\"type\":\"meta\",\"kind\":\"mntp_report\",\"schema_version\":1,"
      "\"run\":\"r\"}\n"
      "{\"type\":\"metric\",\"kind\":\"counter\",\"name\":"
      "\"mntp.queries.minted\",\"labels\":{},\"value\":" +
      std::to_string(minted) + "}\n"
      "{\"type\":\"metric\",\"kind\":\"gauge\",\"name\":\"sim.drift_ppm\","
      "\"labels\":{\"node\":\"a\"},\"value\":" + std::to_string(drift) + "}\n";
  if (with_extra) {
    doc += "{\"type\":\"metric\",\"kind\":\"counter\",\"name\":"
           "\"net.packets\",\"labels\":{},\"value\":10}\n";
  }
  return doc;
}

std::string query_trace_doc(int accepted, int rejected) {
  std::string doc =
      "{\"type\":\"meta\",\"kind\":\"mntp_query_trace\",\"schema_version\":1,"
      "\"run\":\"q\"}\n";
  for (int i = 0; i < accepted; ++i) {
    doc += "{\"type\":\"query\",\"id\":" + std::to_string(i) +
           ",\"kind\":\"ntp\",\"stages\":[{\"stage\":\"verdict\","
           "\"reason\":\"accepted\"}]}\n";
  }
  for (int i = 0; i < rejected; ++i) {
    doc += "{\"type\":\"query\",\"id\":" + std::to_string(accepted + i) +
           ",\"kind\":\"ntp\",\"stages\":[{\"stage\":\"verdict\","
           "\"reason\":\"popcorn\"}]}\n";
  }
  return doc;
}

std::string timeline_doc(double offset) {
  std::string doc =
      "{\"type\":\"meta\",\"kind\":\"mntp_timeline\",\"schema_version\":1,"
      "\"run\":\"t\"}\n"
      "{\"type\":\"series\",\"name\":\"mntp.offset_us\",\"labels\":{},"
      "\"points\":[";
  for (int i = 0; i < 16; ++i) {
    const double mean = (i % 2 == 0 ? 1.0 : -1.0) + offset;
    if (i > 0) doc += ",";
    doc += "[" + std::to_string(i * 100) + "," + std::to_string(mean - 0.5) +
           "," + std::to_string(mean) + "," + std::to_string(mean + 0.5) +
           "," + std::to_string(mean) + ",4]";
  }
  return doc + "]}\n";
}

const DiffEntry* find_entry(const DiffResult& r, const std::string& name) {
  for (const DiffSection& s : r.sections) {
    for (const DiffEntry& e : s.entries) {
      if (e.name == name) return &e;
    }
  }
  return nullptr;
}

TEST(DiffBench, SelfDiffIsCleanAndExitsZero) {
  const std::string p = write_file("bench_a.json", bench_doc(1000.0, 10.0));
  auto r = diff_files(p, p, {});
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r.value().kind, DiffKind::kBench);
  EXPECT_EQ(r.value().significant, 0u);
  EXPECT_EQ(r.value().regressions, 0u);
  EXPECT_EQ(r.value().exit_code(), 0);
}

TEST(DiffBench, GateMatchesBenchCompareAllowance) {
  // limit = 1000 * (1 + 0.5) + max(200, 4*10) = 1700: exactly at the
  // limit passes (the gate uses <=), one microsecond over fails.
  const std::string base = write_file("bench_b.json", bench_doc(1000.0, 10.0));
  const std::string at = write_file("bench_c.json", bench_doc(1700.0, 10.0));
  const std::string over = write_file("bench_d.json", bench_doc(1701.0, 10.0));

  auto r_at = diff_files(base, at, {});
  ASSERT_TRUE(r_at.ok());
  EXPECT_EQ(r_at.value().regressions, 0u);
  EXPECT_EQ(r_at.value().exit_code(), 0);

  auto r_over = diff_files(base, over, {});
  ASSERT_TRUE(r_over.ok());
  EXPECT_EQ(r_over.value().regressions, 1u);
  EXPECT_EQ(r_over.value().exit_code(), 1);
  const DiffEntry* e = find_entry(r_over.value(), "engine_round");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->regression);
  EXPECT_EQ(e->cls, "changed");
  // Regressions rank first.
  EXPECT_EQ(r_over.value().sections[0].entries[0].name, "engine_round");
}

TEST(DiffBench, ImprovementIsSignificantButNotRegression) {
  const std::string base = write_file("bench_e.json", bench_doc(2000.0, 10.0));
  const std::string fast = write_file("bench_f.json", bench_doc(500.0, 10.0));
  auto r = diff_files(base, fast, {});
  ASSERT_TRUE(r.ok());
  const DiffEntry* e = find_entry(r.value(), "engine_round");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->significant);
  EXPECT_FALSE(e->regression);
  EXPECT_EQ(e->note, "improvement");
  EXPECT_EQ(r.value().exit_code(), 0);
}

TEST(DiffBench, MissingWorkloadFailsNewWorkloadNotes) {
  const std::string both = write_file("bench_g.json", bench_doc(1000.0, 10.0));
  const std::string solo =
      write_file("bench_h.json", bench_doc(1000.0, 10.0, false));

  auto removed = diff_files(both, solo, {});
  ASSERT_TRUE(removed.ok());
  const DiffEntry* gone = find_entry(removed.value(), "tuner_grid_slice");
  ASSERT_NE(gone, nullptr);
  EXPECT_EQ(gone->cls, "removed");
  EXPECT_TRUE(gone->regression);
  EXPECT_EQ(removed.value().exit_code(), 1);

  auto added = diff_files(solo, both, {});
  ASSERT_TRUE(added.ok());
  const DiffEntry* fresh = find_entry(added.value(), "tuner_grid_slice");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->cls, "added");
  EXPECT_FALSE(fresh->regression);
  EXPECT_EQ(added.value().exit_code(), 0);
}

TEST(DiffBench, BudgetGatesWithinTheCandidate) {
  // tuner_grid_slice has median 200 in every bench_doc, so a 50% budget
  // puts engine_round's limit at exactly 300. Self-diffs keep the
  // workload gate clean: only the budgets can regress.
  const auto run = [](double engine_median, const std::string& spec) {
    const std::string p = write_file("budget.json", bench_doc(engine_median, 1));
    DiffOptions opt;
    opt.budgets.push_back(parse_bench_budget(spec).value());
    auto r = diff_files(p, p, opt);
    EXPECT_TRUE(r.ok()) << r.error().message;
    return r.value();
  };
  const DiffResult at = run(300.0, "engine_round:tuner_grid_slice:50");
  EXPECT_EQ(at.exit_code(), 0);
  ASSERT_EQ(at.sections.size(), 2u);
  EXPECT_EQ(at.sections[1].title, "budgets");
  const DiffEntry* e = find_entry(at, "engine_round:tuner_grid_slice:50");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->before, 200.0);  // the reference workload
  EXPECT_EQ(e->after, 300.0);
  EXPECT_EQ(e->cls, "equal");

  const DiffResult over = run(301.0, "engine_round:tuner_grid_slice:50");
  EXPECT_EQ(over.regressions, 1u);
  EXPECT_EQ(over.exit_code(), 1);

  const DiffResult missing = run(100.0, "nope:tuner_grid_slice:50");
  const DiffEntry* gone = find_entry(missing, "nope:tuner_grid_slice:50");
  ASSERT_NE(gone, nullptr);
  EXPECT_TRUE(gone->regression);
  EXPECT_NE(gone->note.find("'nope' missing"), std::string::npos);
  EXPECT_EQ(missing.exit_code(), 1);

  EXPECT_EQ(run(200.0, "engine_round:tuner_grid_slice:0").exit_code(), 0);
  EXPECT_EQ(run(201.0, "engine_round:tuner_grid_slice:0").exit_code(), 1);
}

TEST(DiffBench, BudgetSpecParsing) {
  auto ok = parse_bench_budget("telemetry_overhead_off:engine_round:3");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().a, "telemetry_overhead_off");
  EXPECT_EQ(ok.value().b, "engine_round");
  EXPECT_EQ(ok.value().pct, 3.0);
  for (const char* bad : {"", "a:b", "a:b:c:1", ":b:1", "a::1", "a:b:",
                          "a:b:3x", "a:b:inf"}) {
    EXPECT_FALSE(parse_bench_budget(bad).ok()) << bad;
  }
  // Budgets are a bench-only option.
  const std::string prof =
      write_file("budget_prof.json", profile_doc("p", 100.0, 80.0));
  DiffOptions opt;
  opt.budgets.push_back(ok.value());
  EXPECT_FALSE(diff_files(prof, prof, opt).ok());
}

TEST(DiffBench, EnvironmentMismatchWarnsWithoutGating) {
  const std::string gcc = write_file("env_a.json", bench_doc(1000.0, 10.0));
  const std::string clang =
      write_file("env_b.json", bench_doc(1000.0, 10.0, true, "clang"));
  auto same = diff_files(gcc, gcc, {});
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same.value().warnings.empty());
  auto r = diff_files(gcc, clang, {});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().warnings.size(), 1u);
  EXPECT_NE(r.value().warnings[0].find("environment.compiler"),
            std::string::npos);
  EXPECT_EQ(r.value().exit_code(), 0);
}

TEST(DiffBench, PerfDeltaRecord) {
  const std::string base =
      write_file("delta_a.json", bench_doc(1000.0, 10.0, false));
  const std::string cand = write_file("delta_b.json", bench_doc(800.0, 4.0));
  auto delta = render_perf_delta(base, cand);
  ASSERT_TRUE(delta.ok()) << delta.error().message;
  auto doc = core::Json::parse(delta.value());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  EXPECT_EQ(doc.value()["kind"].as_string(), "mntp_perf_delta");
  EXPECT_EQ(doc.value()["schema_version"].as_int(), 1);
  EXPECT_EQ(doc.value()["environment"]["compiler"].as_string(), "gcc");
  const auto& workloads = doc.value()["workloads"].as_array();
  ASSERT_EQ(workloads.size(), 2u);  // candidate order
  EXPECT_EQ(workloads[0]["name"].as_string(), "engine_round");
  EXPECT_EQ(workloads[0]["after_median_us"].as_double(), 800.0);
  EXPECT_EQ(workloads[0]["after_mad_us"].as_double(), 4.0);
  EXPECT_EQ(workloads[0]["before_median_us"].as_double(), 1000.0);
  EXPECT_EQ(workloads[0]["before_mad_us"].as_double(), 10.0);
  EXPECT_EQ(workloads[0]["speedup"].as_double(), 1.25);
  EXPECT_EQ(workloads[1]["name"].as_string(), "tuner_grid_slice");
  EXPECT_TRUE(workloads[1]["before_median_us"].is_null());
  EXPECT_EQ(workloads[1]["note"].as_string(), "new workload in this PR");

  auto reverse = render_perf_delta(cand, base);
  ASSERT_TRUE(reverse.ok());
  const auto reverse_doc = core::Json::parse(reverse.value());
  ASSERT_TRUE(reverse_doc.ok());
  const auto& rw = reverse_doc.value()["workloads"].as_array();
  ASSERT_EQ(rw.size(), 2u);
  EXPECT_EQ(rw[0]["speedup"].as_double(), 0.8);
  EXPECT_TRUE(rw[1]["after_median_us"].is_null());
  EXPECT_EQ(rw[1]["note"].as_string(), "workload removed in this PR");

  const std::string prof =
      write_file("delta_prof.json", profile_doc("p", 100.0, 80.0));
  EXPECT_FALSE(render_perf_delta(prof, prof).ok());
}

TEST(DiffProfile, PerturbedSpanIsTopContributor) {
  const std::string base =
      write_file("prof_a.json", profile_doc("base", 100.0, 80.0));
  const std::string pert =
      write_file("prof_b.json", profile_doc("pert", 400.0, 380.0));
  auto r = diff_files(base, pert, {});
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r.value().kind, DiffKind::kProfile);
  EXPECT_EQ(r.value().a_run, "base");
  EXPECT_EQ(r.value().b_run, "pert");
  ASSERT_FALSE(r.value().sections.empty());
  const DiffEntry& top = r.value().sections[0].entries[0];
  EXPECT_EQ(top.name, "mntp.engine.round");
  EXPECT_TRUE(top.regression);
  // Only one span moved, so it owns the entire contribution share.
  EXPECT_DOUBLE_EQ(top.score, 1.0);
  EXPECT_DOUBLE_EQ(top.delta, 4 * (380.0 - 80.0));
  EXPECT_EQ(r.value().exit_code(), 1);

  auto self = diff_files(base, base, {});
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value().significant, 0u);
  EXPECT_EQ(self.value().exit_code(), 0);
}

TEST(DiffProfile, AggregateEventsCountTheirSpans) {
  // The --profile-out form: one event per span name standing for
  // args.agg_count spans. Counts sum over events of the same name.
  const std::string compact = write_file(
      "prof_compact.json",
      "{\"traceEvents\":["
      "{\"ph\":\"X\",\"name\":\"mntp.engine.round\",\"cat\":\"aggregate\","
      "\"ts\":0,\"dur\":700,\"args\":{\"self_us\":600,\"depth\":0,"
      "\"agg_count\":582820}},"
      "{\"ph\":\"X\",\"name\":\"mntp.engine.round\",\"cat\":\"aggregate\","
      "\"ts\":701,\"dur\":300,\"args\":{\"self_us\":200,\"depth\":0,"
      "\"agg_count\":4}}]}");
  auto r = diff_files(compact, compact, {});
  ASSERT_TRUE(r.ok()) << r.error().message;
  const DiffEntry* e = find_entry(r.value(), "mntp.engine.round");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->before, 800.0);
  EXPECT_EQ(e->note, "total 1000.0 -> 1000.0 us, count 582824 -> 582824");
  EXPECT_EQ(r.value().exit_code(), 0);
}

TEST(DiffReport, AccountingCountersReconcileExactly) {
  const std::string a =
      write_file("rep_a.jsonl", report_doc(100, 10.0, true));
  // Accounting counter off by one, gauge within tolerance, one counter
  // removed: the shift and the removal gate, the gauge drift does not.
  const std::string b =
      write_file("rep_b.jsonl", report_doc(101, 11.0, false));

  auto self = diff_files(a, a, {});
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value().kind, DiffKind::kReport);
  EXPECT_EQ(self.value().significant, 0u);
  const DiffEntry* minted = find_entry(self.value(), "mntp.queries.minted");
  ASSERT_NE(minted, nullptr);
  EXPECT_EQ(minted->cls, "exact");

  auto r = diff_files(a, b, {});
  ASSERT_TRUE(r.ok());
  const DiffEntry* shifted = find_entry(r.value(), "mntp.queries.minted");
  ASSERT_NE(shifted, nullptr);
  EXPECT_EQ(shifted->cls, "shifted");
  EXPECT_TRUE(shifted->regression);
  const DiffEntry* gauge = find_entry(r.value(), "sim.drift_ppm{node=a}");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->cls, "equal");
  EXPECT_FALSE(gauge->significant);
  const DiffEntry* removed = find_entry(r.value(), "net.packets");
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(removed->cls, "removed");
  EXPECT_TRUE(removed->regression);
  EXPECT_EQ(r.value().regressions, 2u);
  EXPECT_EQ(r.value().exit_code(), 1);
}

TEST(DiffQueryTrace, ShareShiftIsSignificant) {
  const std::string a = write_file("qt_a.jsonl", query_trace_doc(150, 150));
  const std::string b = write_file("qt_b.jsonl", query_trace_doc(285, 15));

  auto self = diff_files(a, a, {});
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value().kind, DiffKind::kQueryTrace);
  EXPECT_EQ(self.value().significant, 0u);

  auto r = diff_files(a, b, {});
  ASSERT_TRUE(r.ok());
  const DiffEntry* pop = find_entry(r.value(), "ntp/popcorn");
  ASSERT_NE(pop, nullptr);
  EXPECT_EQ(pop->cls, "shifted");
  EXPECT_TRUE(pop->significant);
  EXPECT_GT(pop->score, 4.0);  // default sigma
  EXPECT_EQ(r.value().exit_code(), 1);
}

TEST(DiffTimeline, DivergenceScoresAgainstOwnSpread) {
  const std::string a = write_file("tl_a.jsonl", timeline_doc(0.0));
  // Shift every mean by 3x the series' own stddev (1.0): RMS/stddev = 3,
  // well past the 0.25 default divergence threshold.
  const std::string b = write_file("tl_b.jsonl", timeline_doc(3.0));

  auto self = diff_files(a, a, {});
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value().kind, DiffKind::kTimeline);
  EXPECT_EQ(self.value().significant, 0u);

  auto r = diff_files(a, b, {});
  ASSERT_TRUE(r.ok());
  const DiffEntry* s = find_entry(r.value(), "mntp.offset_us");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->significant);
  EXPECT_NEAR(s->score, 3.0, 0.15);  // 3 / sample-stddev(+-1) ~ 2.90
  EXPECT_NEAR(s->delta, 3.0, 1e-9);
  EXPECT_EQ(r.value().exit_code(), 1);
}

TEST(DiffErrors, MixedKindsMalformedAndUnsupported) {
  const std::string bench = write_file("err_a.json", bench_doc(1000.0, 10.0));
  const std::string report = write_file("err_b.jsonl", report_doc(1, 1, false));
  auto mixed = diff_files(bench, report, {});
  ASSERT_FALSE(mixed.ok());
  EXPECT_NE(mixed.error().message.find("artifact kinds differ"),
            std::string::npos);

  auto missing = diff_files(bench, "/nonexistent/no.json", {});
  EXPECT_FALSE(missing.ok());

  const std::string garbage = write_file("err_c.json", "not json at all\n");
  auto bad = diff_files(garbage, bench, {});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("err_c.json"), std::string::npos);

  const std::string trace = write_file(
      "err_d.jsonl",
      "{\"type\":\"meta\",\"kind\":\"mntp_trace_events\","
      "\"schema_version\":1}\n");
  auto undiffable = diff_files(trace, trace, {});
  ASSERT_FALSE(undiffable.ok());
  EXPECT_NE(undiffable.error().message.find("unsupported artifact kind"),
            std::string::npos);

  const std::string delta = write_file(
      "err_e.json", "{\"kind\":\"mntp_perf_delta\",\"schema_version\":1}");
  auto unsupported = diff_files(delta, delta, {});
  ASSERT_FALSE(unsupported.ok());
  EXPECT_NE(unsupported.error().message.find("unsupported artifact kind"),
            std::string::npos);
}

TEST(DiffRender, JsonOutputParsesAndMatchesTallies) {
  const std::string base = write_file("rj_a.json", bench_doc(1000.0, 10.0));
  const std::string over = write_file("rj_b.json", bench_doc(3000.0, 10.0));
  auto r = diff_files(base, over, {});
  ASSERT_TRUE(r.ok());
  const std::string json = render_diff_json(r.value(), {});
  auto doc = core::Json::parse(json);
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  EXPECT_EQ(doc.value()["kind"].as_string(), "mntp_diff");
  EXPECT_EQ(doc.value()["artifact_kind"].as_string(), "bench");
  EXPECT_EQ(doc.value()["exit_hint"].as_int(), 1);
  EXPECT_EQ(doc.value()["regressions"].as_int(),
            static_cast<std::int64_t>(r.value().regressions));
  // The text renderer ends on the verdict line scripts grep for.
  const std::string text = render_diff_text(r.value(), {});
  EXPECT_NE(text.find("-> exit 1"), std::string::npos);
}

}  // namespace
}  // namespace mntp::obs
