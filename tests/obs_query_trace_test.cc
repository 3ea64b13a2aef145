// Query-tracer tests: lifecycle and latching, store bounds, ambient
// scoping, JSONL serialization, engine round ownership, the tracing-off
// bit-identity guarantee, the per-thread store contract, the sampling
// gate and its sampled-out mark, and thread safety under the parallel
// tuner.
#include "obs/query_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/json.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "mntp/engine.h"
#include "mntp/params.h"
#include "mntp/trace.h"
#include "mntp/tuner.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "support/read_back.h"

namespace mntp::obs {
namespace {

using core::TimePoint;

TimePoint at(std::int64_t ns) { return TimePoint::from_ns(ns); }

std::string to_jsonl(const QueryTracer& tracer, std::string_view run,
                     TimePoint sim_end) {
  std::ostringstream out;
  tracer.write_jsonl(out, run, sim_end);
  return out.str();
}

TEST(QueryTracer, DisabledMintsNothing) {
  QueryTracer tracer;  // off by default
  EXPECT_EQ(tracer.begin(at(1), "round"), 0u);
  tracer.stage(0, at(2), "gate", Reason::kOk);
  tracer.finish(0, at(3), Reason::kOk);
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.minted(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(QueryTracer, LifecycleRecordsStagesAndVerdict) {
  QueryTracer tracer;
  tracer.set_enabled(true);
  const QueryId round = tracer.begin(at(100), "round");
  ASSERT_NE(round, 0u);
  const QueryId exchange = tracer.begin(at(110), "exchange", round);
  tracer.stage(round, at(105), "gate", Reason::kOk, {{"rssi_dbm", -60.0}});
  tracer.stage(exchange, at(120), "hop", Reason::kNone,
               {{"hop", std::string("wifi.up")}});
  tracer.finish(exchange, at(130), Reason::kOk, {{"offset_ms", 1.5}});
  tracer.finish(round, at(140), Reason::kAcceptedRegular);

  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].id, round);
  EXPECT_EQ(traces[0].parent, 0u);
  EXPECT_EQ(traces[0].kind, "round");
  EXPECT_EQ(traces[0].started, at(100));
  ASSERT_EQ(traces[0].stages.size(), 2u);
  EXPECT_EQ(traces[0].stages[0].stage, "gate");
  EXPECT_EQ(traces[0].stages[1].stage, "verdict");
  EXPECT_TRUE(traces[0].finished);
  EXPECT_EQ(traces[0].verdict(), Reason::kAcceptedRegular);

  EXPECT_EQ(traces[1].id, exchange);
  EXPECT_EQ(traces[1].parent, round);
  EXPECT_EQ(traces[1].kind, "exchange");
  EXPECT_EQ(traces[1].verdict(), Reason::kOk);
}

TEST(QueryTracer, FinishLatchesAgainstStragglers) {
  QueryTracer tracer;
  tracer.set_enabled(true);
  const QueryId id = tracer.begin(at(1), "exchange");
  tracer.finish(id, at(2), Reason::kTimeout);
  // A reply landing after the timeout verdict records nothing — exactly
  // what a real client could observe.
  tracer.stage(id, at(3), "server", Reason::kOk);
  tracer.finish(id, at(4), Reason::kOk);
  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].stages.size(), 1u);
  EXPECT_EQ(traces[0].verdict(), Reason::kTimeout);
}

TEST(QueryTracer, StageCapDropsButVerdictStillLands) {
  QueryTracer tracer(QueryTracer::Limits{.max_queries = 8,
                                         .max_stages_per_query = 2});
  tracer.set_enabled(true);
  const QueryId id = tracer.begin(at(1), "round");
  tracer.stage(id, at(2), "a", Reason::kNone);
  tracer.stage(id, at(3), "b", Reason::kNone);
  tracer.stage(id, at(4), "c", Reason::kNone);  // over the cap: dropped
  tracer.finish(id, at(5), Reason::kOk);        // verdict always lands
  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].stages.size(), 3u);
  EXPECT_EQ(traces[0].stages[2].stage, "verdict");
  EXPECT_EQ(traces[0].verdict(), Reason::kOk);
}

TEST(QueryTracer, QueryCapKeepsIdsMonotonicAndCountsDrops) {
  QueryTracer tracer(QueryTracer::Limits{.max_queries = 2,
                                         .max_stages_per_query = 8});
  tracer.set_enabled(true);
  const QueryId a = tracer.begin(at(1), "round");
  const QueryId b = tracer.begin(at(2), "round");
  const QueryId c = tracer.begin(at(3), "round");  // store full
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);  // ids stay monotonic even when the body is dropped
  EXPECT_EQ(tracer.dropped(), 1u);
  EXPECT_TRUE(recorded(b));
  EXPECT_FALSE(recorded(c));  // marked: emitters skip its payloads
  tracer.stage(c, at(4), "gate", Reason::kOk);  // silently no-ops
  tracer.finish(c, at(5), Reason::kOk);
  EXPECT_EQ(tracer.snapshot().size(), 2u);
  EXPECT_EQ(tracer.minted(), 3u);
}

TEST(QueryTracer, AmbientScopeInstallsNestsAndRestores) {
  QueryTracer tracer;
  tracer.set_enabled(true);
  EXPECT_EQ(ambient_query().tracer, nullptr);
  const QueryId outer = tracer.begin(at(1), "round");
  {
    ActiveQueryScope outer_scope(tracer, outer);
    EXPECT_EQ(ambient_query().tracer, &tracer);
    EXPECT_EQ(ambient_query().id, outer);
    {
      // id 0 installs "no ambient", so callers can wrap unconditionally.
      ActiveQueryScope inner_scope(tracer, 0);
      EXPECT_EQ(ambient_query().tracer, nullptr);
      EXPECT_EQ(ambient_query().id, 0u);
    }
    EXPECT_EQ(ambient_query().id, outer);
  }
  EXPECT_EQ(ambient_query().tracer, nullptr);
}

TEST(QueryTracer, JsonlSerializesMetaAndTypedFields) {
  QueryTracer tracer;
  tracer.set_enabled(true);
  const QueryId id = tracer.begin(at(1'000'000'000), "round");
  tracer.stage(id, at(2'000'000'000), "gate", Reason::kChannelDefer,
               {{"rssi_dbm", -78.5},
                {"retries", std::int64_t{3}},
                {"hop", std::string("wifi.up")},
                {"exhausted", true}});
  tracer.finish(id, at(3'000'000'000), Reason::kChannelDefer,
                {{"phase", std::string("warmup")}});

  const std::string jsonl = to_jsonl(tracer, "test_run", at(4'000'000'000));
  std::istringstream stream(jsonl);
  std::vector<std::string> lines;
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);

  const auto meta = core::Json::parse(lines[0]);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta.value()["type"].as_string(), "meta");
  EXPECT_EQ(meta.value()["kind"].as_string(), "mntp_query_trace");
  EXPECT_EQ(meta.value()["schema_version"].as_int(), 1);
  EXPECT_EQ(meta.value()["run"].as_string(), "test_run");
  EXPECT_EQ(meta.value()["sim_end_ns"].as_int(), 4'000'000'000);
  EXPECT_EQ(meta.value()["query_count"].as_int(), 1);
  EXPECT_EQ(meta.value()["dropped"].as_int(), 0);

  const auto query = core::Json::parse(lines[1]);
  ASSERT_TRUE(query.ok());
  const core::Json& q = query.value();
  EXPECT_EQ(q["type"].as_string(), "query");
  EXPECT_EQ(q["id"].as_int(), static_cast<std::int64_t>(id));
  EXPECT_EQ(q["parent"].as_int(), 0);
  EXPECT_EQ(q["kind"].as_string(), "round");
  EXPECT_EQ(q["start_ns"].as_int(), 1'000'000'000);
  ASSERT_EQ(q["stages"].as_array().size(), 2u);
  const core::Json& gate = q["stages"].as_array()[0];
  EXPECT_EQ(gate["t_ns"].as_int(), 2'000'000'000);
  EXPECT_EQ(gate["stage"].as_string(), "gate");
  EXPECT_EQ(gate["reason"].as_string(), "channel_defer");
  EXPECT_DOUBLE_EQ(gate["fields"]["rssi_dbm"].as_double(), -78.5);
  EXPECT_EQ(gate["fields"]["retries"].as_int(), 3);
  EXPECT_EQ(gate["fields"]["hop"].as_string(), "wifi.up");
  EXPECT_TRUE(gate["fields"]["exhausted"].as_bool());
  const core::Json& verdict = q["stages"].as_array()[1];
  EXPECT_EQ(verdict["stage"].as_string(), "verdict");
  EXPECT_EQ(verdict["reason"].as_string(), "channel_defer");

  const ArtifactFile file = test::read_back("query_trace.jsonl", jsonl);
  EXPECT_EQ(file.kind, ArtifactKind::kQueryTrace);
  EXPECT_EQ(file.run, "test_run");
  EXPECT_EQ(file.sim_end_ns, 4'000'000'000);
  EXPECT_EQ(file.trace.dropped, 0);
  EXPECT_FALSE(file.trace.sampled);
  ASSERT_EQ(file.trace.queries.size(), 1u);
  const TraceQuery& decoded = file.trace.queries[0];
  EXPECT_EQ(decoded.id, static_cast<long long>(id));
  EXPECT_EQ(decoded.parent, 0);
  EXPECT_EQ(decoded.kind, "round");
  EXPECT_EQ(decoded.start_ns, 1'000'000'000);
  EXPECT_EQ(decoded.verdict, "channel_defer");
  ASSERT_EQ(decoded.stages.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const core::Json& written = q["stages"].as_array()[i];
    const TraceStage& stage = decoded.stages[i];
    EXPECT_EQ(stage.t_ns, written["t_ns"].as_int());
    EXPECT_EQ(stage.stage, written["stage"].as_string());
    EXPECT_EQ(stage.reason, written["reason"].as_string());
    EXPECT_EQ(stage.fields.size(), written["fields"].size());
  }
  const core::Json& fields = decoded.stages[0].fields;
  EXPECT_DOUBLE_EQ(fields["rssi_dbm"].as_double(), -78.5);
  EXPECT_EQ(fields["retries"].as_int(), 3);
  EXPECT_EQ(fields["hop"].as_string(), "wifi.up");
  EXPECT_TRUE(fields["exhausted"].as_bool());
}

TEST(QueryTracer, WriteToFullDeviceFails) {
  // One query is far smaller than the stream's buffer, so the device's
  // refusal only shows when the last bytes are flushed.
  QueryTracer tracer;
  tracer.set_enabled(true);
  const QueryId id = tracer.begin(at(1), "round");
  tracer.finish(id, at(2), Reason::kOk);
  EXPECT_FALSE(tracer.write_jsonl_file("/dev/full", "run", at(3)));
}

/// One engine round the way a traced driver runs it: mint the round,
/// install it as the ambient query, judge, close with the verdict.
protocol::MntpEngine::RoundResult traced_round(
    QueryTracer& tracer, protocol::MntpEngine& engine, TimePoint t,
    const std::vector<double>& offsets) {
  const QueryId id = tracer.begin(t, "round");
  protocol::MntpEngine::RoundResult rr;
  {
    ActiveQueryScope scope(tracer, id);
    rr = engine.on_round(t, offsets);
  }
  protocol::finish_round_trace(tracer, id, t, rr, offsets.size());
  return rr;
}

TEST(QueryTracer, EngineLeavesRoundsToTheDriver) {
  // The engine mints no query of its own: with tracing on and no ambient
  // round it records nothing, and the driver's round carries the
  // verdict.
  Telemetry telemetry;
  ScopedTelemetry scope(telemetry);
  QueryTracer& tracer = telemetry.query_tracer();
  tracer.set_enabled(true);
  protocol::MntpEngine engine(protocol::head_to_head_params(),
                              TimePoint::epoch());
  (void)engine.on_round(at(1'000'000'000), {0.001});
  EXPECT_TRUE(tracer.snapshot().empty());
  (void)traced_round(tracer, engine, at(5'000'000'000), {0.002});
  (void)traced_round(tracer, engine, at(10'000'000'000), {});

  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].kind, "round");
  EXPECT_TRUE(traces[0].finished);
  // Still bootstrapping the filter: accepted in the regular phase
  // (head-to-head params skip warm-up).
  EXPECT_EQ(traces[0].verdict(), Reason::kAcceptedRegular);
  // A round with no surviving offsets closes as no_samples.
  EXPECT_EQ(traces[1].verdict(), Reason::kNoSamples);
}

TEST(QueryTracer, EngineOutputBitIdenticalTracingOnOrOff) {
  // The tracer only observes: every engine decision, record, and double
  // must match bit-for-bit between a traced and an untraced run.
  auto run = [](bool tracing) {
    Telemetry telemetry;
    ScopedTelemetry scope(telemetry);
    telemetry.query_tracer().set_enabled(tracing);
    protocol::MntpEngine engine(protocol::MntpParams{}, TimePoint::epoch());
    core::Rng rng(42);
    for (int i = 1; i <= 200; ++i) {
      std::vector<double> offsets;
      for (std::size_t k = rng.index(4); k-- > 0;) {
        offsets.push_back(rng.normal(0.0, 0.01));
      }
      const TimePoint t = at(static_cast<std::int64_t>(i) * 15'000'000'000);
      if (tracing) {
        (void)traced_round(telemetry.query_tracer(), engine, t, offsets);
      } else {
        (void)engine.on_round(t, offsets);
      }
    }
    return engine.records();
  };

  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].t, on[i].t) << "record " << i;
    EXPECT_EQ(off[i].offset_s, on[i].offset_s) << "record " << i;
    EXPECT_EQ(off[i].corrected_s, on[i].corrected_s) << "record " << i;
    EXPECT_EQ(off[i].outcome, on[i].outcome) << "record " << i;
    EXPECT_EQ(off[i].phase, on[i].phase) << "record " << i;
    EXPECT_EQ(off[i].bootstrap, on[i].bootstrap) << "record " << i;
  }
}

// ------------------------------------------------------ per-thread stores

// Names are literals only: a runtime string cannot become one, so the
// store's pointers cannot dangle.
static_assert(!std::is_convertible_v<std::string, Name>);
static_assert(!std::is_convertible_v<const char*, Name>);
static_assert(!std::is_convertible_v<std::string_view, Name>);

/// The meta line of `tracer`'s artifact.
core::Json meta_of(const QueryTracer& tracer) {
  const std::string jsonl = to_jsonl(tracer, "run", at(1'000));
  auto meta = core::Json::parse(jsonl.substr(0, jsonl.find('\n')));
  EXPECT_TRUE(meta.ok());
  return meta.value();
}

TEST(QueryTracerStore, ConcurrentMintersKeepLatchAndCaps) {
  // Four threads mint at once into a store capped at 200 queries and 3
  // stages per query. Each query gets 5 stages, a verdict, then a
  // straggler stage and a second verdict: the caps and the latch hold
  // per query, whichever thread's store holds it.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  QueryTracer tracer(QueryTracer::Limits{.max_queries = 200,
                                         .max_stages_per_query = 3});
  tracer.set_enabled(true);
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        const QueryId id = tracer.begin(at(i), "exchange");
        for (std::int64_t k = 0; k < 5; ++k) {
          tracer.stage(id, at(i), "hop", Reason::kNone, {{"hop", k}});
        }
        tracer.finish(id, at(i + 1), Reason::kTimeout);
        tracer.stage(id, at(i + 2), "server", Reason::kOk);
        tracer.finish(id, at(i + 3), Reason::kOk);
      }
    });
  }
  for (auto& t : pool) t.join();

  EXPECT_EQ(tracer.minted(), std::uint64_t{kThreads * kPerThread});
  EXPECT_EQ(tracer.kept(), 200u);
  EXPECT_EQ(tracer.dropped(), 200u);
  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 200u);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const QueryTrace& t = traces[i];
    if (i > 0) {
      EXPECT_LT(traces[i - 1].id, t.id);
    }
    ASSERT_EQ(t.stages.size(), 4u) << "query " << t.id;
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(t.stages[k].stage, "hop");
      EXPECT_EQ(std::get<std::int64_t>(t.stages[k].fields[0].value),
                static_cast<std::int64_t>(k));
    }
    EXPECT_EQ(t.verdict(), Reason::kTimeout);
  }
  const core::Json meta = meta_of(tracer);
  EXPECT_EQ(meta["query_count"].as_int(), 200);
  EXPECT_EQ(meta["dropped"].as_int(), 200);
  EXPECT_EQ(meta["dropped_stages"].as_int(), 200 * 2);
}

TEST(QueryTracerStore, ThreadAlternatingTracersKeepsItsOpenQueries) {
  // One thread round-robins over more tracers than its store cache
  // holds, with a query open in each: every stage lands in its own
  // tracer's query, and none leaks into another tracer.
  constexpr std::size_t kTracers = 7;
  std::vector<std::unique_ptr<QueryTracer>> tracers;
  for (std::size_t i = 0; i < kTracers; ++i) {
    tracers.push_back(std::make_unique<QueryTracer>());
    tracers.back()->set_enabled(true);
  }
  // Tracer i's first query opens at t = i; ids restart at 1 per tracer.
  std::vector<QueryId> open(kTracers);
  for (std::size_t i = 0; i < kTracers; ++i) {
    open[i] = tracers[i]->begin(at(static_cast<std::int64_t>(i)), "round");
  }
  for (std::int64_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < kTracers; ++i) {
      tracers[i]->stage(open[i], at(round), "gate", Reason::kOk,
                        {{"tracer", static_cast<std::int64_t>(i)}});
    }
  }
  for (std::size_t i = 0; i < kTracers; ++i) {
    tracers[i]->finish(open[i], at(10), Reason::kOk);
  }
  for (std::size_t i = 0; i < kTracers; ++i) {
    const auto traces = tracers[i]->snapshot();
    ASSERT_EQ(traces.size(), 1u) << "tracer " << i;
    EXPECT_EQ(traces[0].started, at(static_cast<std::int64_t>(i)));
    ASSERT_EQ(traces[0].stages.size(), 4u) << "tracer " << i;
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(std::get<std::int64_t>(traces[0].stages[k].fields[0].value),
                static_cast<std::int64_t>(i));
    }
    EXPECT_EQ(traces[0].verdict(), Reason::kOk);
  }
}

TEST(QueryTracerStore, StageFromAnotherThreadRecordsNothing) {
  // The contract: a query's stages are written on the thread that
  // minted it. A stage or verdict for it from any other thread — one
  // with no store, or one with a store of its own — is dropped.
  QueryTracer tracer;
  tracer.set_enabled(true);
  const QueryId id = tracer.begin(at(1), "round");
  QueryId other = 0;
  std::thread stranger([&] {
    tracer.stage(id, at(2), "gate", Reason::kOk);
    tracer.finish(id, at(3), Reason::kTimeout);
    other = tracer.begin(at(4), "exchange");
    tracer.stage(id, at(5), "gate", Reason::kOk);
    tracer.finish(id, at(6), Reason::kTimeout);
    tracer.finish(other, at(7), Reason::kOk);
  });
  stranger.join();
  auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].id, id);
  EXPECT_TRUE(traces[0].stages.empty());
  EXPECT_FALSE(traces[0].finished);
  EXPECT_EQ(traces[1].id, other);
  EXPECT_EQ(traces[1].verdict(), Reason::kOk);

  // The minting thread still owns the query.
  tracer.finish(id, at(8), Reason::kOk);
  traces = tracer.snapshot();
  ASSERT_EQ(traces[0].stages.size(), 1u);
  EXPECT_EQ(traces[0].verdict(), Reason::kOk);
}

TEST(QueryTracerStore, StringValuesOutliveTheCallersBuffer) {
  QueryTracer tracer;
  tracer.set_enabled(true);
  const QueryId id = tracer.begin(at(1), "exchange");
  {
    std::string hop = "wifi.up";
    tracer.stage(id, at(2), "hop", Reason::kNone, {{"hop", hop}});
    hop.assign(hop.size(), 'x');
  }
  {
    auto buffer = std::make_unique<std::string>("sntp \"quoted\"");
    tracer.finish(id, at(3), Reason::kOk,
                  {{"mode", std::string_view(*buffer)}});
    buffer->assign(buffer->size(), 'y');
  }
  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].stages.size(), 2u);
  EXPECT_EQ(std::get<std::string>(traces[0].stages[0].fields[0].value),
            "wifi.up");
  EXPECT_EQ(std::get<std::string>(traces[0].stages[1].fields[0].value),
            "sntp \"quoted\"");
  const std::string jsonl = to_jsonl(tracer, "run", at(4));
  EXPECT_NE(jsonl.find("\"hop\":\"wifi.up\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"mode\":\"sntp \\\"quoted\\\"\""),
            std::string::npos);
}

// ------------------------------------------------------------- sampling

TEST(QueryTracerSampling, GateIsAPureFunctionOfSeedAndId) {
  // The kept set must depend only on (seed, n, id) — never on timing,
  // interleaving, or how many times the run is repeated.
  auto kept_ids = [](std::uint64_t seed) {
    QueryTracer tracer;
    tracer.set_enabled(true);
    tracer.set_sampling({.sample_one_in_n = 4, .seed = seed});
    for (int i = 0; i < 400; ++i) {
      const QueryId id = tracer.begin(at(i), "round");
      tracer.finish(id, at(i + 1), Reason::kOk);
    }
    std::vector<QueryId> ids;
    for (const auto& t : tracer.snapshot()) ids.push_back(t.id);
    return ids;
  };
  const auto first = kept_ids(7);
  const auto again = kept_ids(7);
  EXPECT_EQ(first, again);
  EXPECT_FALSE(first.empty());
  // Roughly 1-in-4 of 400 minted ids survive the hash gate.
  EXPECT_GT(first.size(), 60u);
  EXPECT_LT(first.size(), 140u);
  // A different seed selects a different (deterministic) subset.
  EXPECT_NE(kept_ids(8), first);
}

TEST(QueryTracerSampling, ConservationAndCounters) {
  QueryTracer tracer;
  tracer.set_enabled(true);
  tracer.set_sampling({.sample_one_in_n = 3, .seed = 1});
  for (int i = 0; i < 300; ++i) {
    const QueryId id = tracer.begin(at(i), "exchange");
    tracer.finish(id, at(i + 1), Reason::kOk);
  }
  EXPECT_EQ(tracer.minted(), 300u);
  EXPECT_EQ(tracer.kept() + tracer.sampled_out() + tracer.dropped(), 300u);
  EXPECT_EQ(tracer.kept(), tracer.snapshot().size());

  // The registry export mirrors the same accounting.
  MetricsRegistry reg;
  tracer.export_counters(reg);
  const auto snaps = reg.snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].name, "obs.query_trace.dropped");
  EXPECT_DOUBLE_EQ(snaps[0].value, 0.0);
  EXPECT_EQ(snaps[1].name, "obs.query_trace.kept");
  EXPECT_DOUBLE_EQ(snaps[1].value, static_cast<double>(tracer.kept()));
  EXPECT_EQ(snaps[2].name, "obs.query_trace.sampled_out");
  EXPECT_DOUBLE_EQ(snaps[2].value,
                   static_cast<double>(tracer.sampled_out()));
}

TEST(QueryTracerSampling, KeptIdSetIsThreadCountInvariant) {
  // The acceptance bar of the fleet-telemetry PR: the same workload
  // partitioned over 1, 4 or 16 workers keeps bit-identical id sets,
  // because the gate hashes the id and ids are minted 1..N regardless
  // of which thread begins which query.
  auto run = [](std::size_t threads) {
    QueryTracer tracer;
    tracer.set_enabled(true);
    tracer.set_sampling({.sample_one_in_n = 5, .seed = 42});
    constexpr int kQueries = 400;
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < threads; ++w) {
      pool.emplace_back([&tracer, threads, w] {
        for (int i = 0; i < kQueries / static_cast<int>(threads); ++i) {
          const QueryId id = tracer.begin(at(i), "round");
          tracer.stage(id, at(i), "gate", Reason::kOk);
          tracer.finish(id, at(i + 1), Reason::kOk);
        }
        (void)w;
      });
    }
    for (auto& t : pool) t.join();
    std::vector<QueryId> ids;
    for (const auto& t : tracer.snapshot()) ids.push_back(t.id);
    return ids;  // snapshot() is already id-sorted
  };
  const auto serial = run(1);
  const auto four = run(4);
  const auto sixteen = run(16);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, sixteen);
}

TEST(QueryTracerSampling, ReplicateKeysAreThreadCountInvariant) {
  // Replicates running on pool workers interleave their mints, so the
  // process-wide ids each replicate receives depend on the schedule.
  // Inside a ReplicateScope the gate hashes (replicate, the replicate's
  // own mint ordinal) instead: the kept queries are the same on 1 or 4
  // workers, and replicate 0 keeps exactly what an unscoped single run
  // keeps. A query is named by its start time: replicate r's i-th query
  // starts at r * kStride + i.
  constexpr std::size_t kReplicates = 8;
  constexpr std::int64_t kQueries = 200;
  constexpr std::int64_t kStride = 1'000'000;
  const auto mint = [](QueryTracer& tracer, std::size_t replicate) {
    for (std::int64_t i = 0; i < kQueries; ++i) {
      const std::int64_t t = static_cast<std::int64_t>(replicate) * kStride + i;
      const QueryId id = tracer.begin(at(t), "round");
      tracer.finish(id, at(t), Reason::kOk);
    }
  };
  const auto kept_starts = [](const QueryTracer& tracer) {
    std::vector<std::int64_t> starts;
    for (const auto& t : tracer.snapshot()) starts.push_back(t.started.ns());
    std::sort(starts.begin(), starts.end());
    return starts;
  };
  const auto sampled_tracer = [](QueryTracer& tracer) {
    tracer.set_enabled(true);
    tracer.set_sampling({.sample_one_in_n = 5, .seed = 42});
  };
  const auto run = [&](std::size_t threads) {
    QueryTracer tracer;
    sampled_tracer(tracer);
    core::ThreadPool pool(threads);
    pool.parallel_for(0, kReplicates, [&](std::size_t r) {
      const QueryTracer::ReplicateScope scope(r);
      mint(tracer, r);
    });
    EXPECT_EQ(tracer.minted(), kReplicates * kQueries);
    return kept_starts(tracer);
  };
  const auto serial = run(1);
  const auto four = run(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, four);

  QueryTracer single;
  sampled_tracer(single);
  mint(single, 0);
  const std::vector<std::int64_t> replicate0(
      serial.begin(), std::lower_bound(serial.begin(), serial.end(), kStride));
  EXPECT_EQ(kept_starts(single), replicate0);
}

/// Mints queries of `kind` until the gate answers `keep`; returns that
/// id. The kept queries minted on the way stay in the store, stageless.
QueryId mint_until(QueryTracer& tracer, bool keep, Name kind,
                   QueryId parent = 0) {
  for (;;) {
    const QueryId id = tracer.begin(at(1), kind, parent);
    if (recorded(id) == keep) return id;
  }
}

TEST(QueryTracerSampling, SampledOutIdRecordsNothingAndShadowsAmbient) {
  QueryTracer tracer;
  tracer.set_enabled(true);
  tracer.set_sampling({.sample_one_in_n = 2, .seed = 3});
  const QueryId round = mint_until(tracer, true, "round");
  const QueryId out = mint_until(tracer, false, "exchange");
  ASSERT_NE(out, 0u);
  EXPECT_NE(out & kUnrecordedMark, 0u);
  EXPECT_LE(out & ~kUnrecordedMark, tracer.minted());

  // Stage and finish for a marked id record nothing.
  tracer.stage(out, at(2), "hop", Reason::kNone, {{"hop", std::int64_t{0}}});
  tracer.finish(out, at(3), Reason::kOk);

  // An ambient emitter as the channel models write one.
  const auto emit_airtime = [] {
    if (const AmbientQuery q = ambient_query(); q.tracer) {
      q.tracer->stage(q.id, at(4), "airtime", Reason::kNone);
    }
  };
  {
    ActiveQueryScope round_scope(tracer, round);
    {
      // The sampled-out exchange's scope hides the recorded round from
      // emitters under it, yet still names the exchange.
      ActiveQueryScope exchange_scope(tracer, out);
      EXPECT_EQ(ambient_query().tracer, nullptr);
      EXPECT_EQ(ambient_query().id, out);
      emit_airtime();
    }
    EXPECT_EQ(ambient_query().tracer, &tracer);
    EXPECT_EQ(ambient_query().id, round);
  }
  tracer.finish(round, at(5), Reason::kOk);

  // The round holds its verdict and no airtime; nothing else holds any
  // stage.
  for (const QueryTrace& t : tracer.snapshot()) {
    if (t.id != round) {
      EXPECT_TRUE(t.stages.empty()) << "query " << t.id;
      continue;
    }
    ASSERT_EQ(t.stages.size(), 1u);
    EXPECT_EQ(t.stages[0].stage, "verdict");
  }
  EXPECT_EQ(tracer.kept() + tracer.sampled_out(), tracer.minted());
}

TEST(QueryTracerSampling, KeptExchangeUnderSampledOutRoundNamesItsRound) {
  QueryTracer tracer;
  tracer.set_enabled(true);
  tracer.set_sampling({.sample_one_in_n = 2, .seed = 5});
  const QueryId round = mint_until(tracer, false, "round");
  QueryId exchange = 0;
  {
    ActiveQueryScope scope(tracer, round);
    exchange = mint_until(tracer, true, "exchange", ambient_query().id);
  }
  const auto traces = tracer.snapshot();
  const auto it = std::find_if(
      traces.begin(), traces.end(),
      [&](const QueryTrace& t) { return t.id == exchange; });
  ASSERT_NE(it, traces.end());
  EXPECT_EQ(it->parent, round & ~kUnrecordedMark);
  EXPECT_NE(it->parent, 0u);
  EXPECT_LT(it->parent, exchange);
}

TEST(QueryTracerSampling, MetaCarriesSamplingBlockOnlyWhenActive) {
  // Byte-identity guarantee: an unsampled artifact has NO sampling key
  // (old consumers see the exact old schema); a sampled one reconciles.
  QueryTracer plain;
  plain.set_enabled(true);
  const QueryId id = plain.begin(at(1), "round");
  plain.finish(id, at(2), Reason::kOk);
  const std::string unsampled = to_jsonl(plain, "run", at(3));
  EXPECT_EQ(unsampled.find("\"sampling\""), std::string::npos);

  QueryTracer tracer;
  tracer.set_enabled(true);
  tracer.set_sampling({.sample_one_in_n = 2, .seed = 9});
  for (int i = 0; i < 50; ++i) {
    const QueryId q = tracer.begin(at(i), "round");
    tracer.finish(q, at(i + 1), Reason::kOk);
  }
  const std::string jsonl = to_jsonl(tracer, "run", at(100));
  const auto meta =
      core::Json::parse(jsonl.substr(0, jsonl.find('\n')));
  ASSERT_TRUE(meta.ok());
  const core::Json& s = meta.value()["sampling"];
  EXPECT_EQ(s["sample_one_in_n"].as_int(), 2);
  EXPECT_EQ(s["seed"].as_int(), 9);
  EXPECT_EQ(s["minted"].as_int(), 50);
  EXPECT_EQ(s["kept"].as_int() + s["sampled_out"].as_int(), 50);
  EXPECT_EQ(meta.value()["query_count"].as_int(), s["kept"].as_int());
}

// A "recorded" trace with deterministic variation for tuner replays.
protocol::Trace make_noisy_trace(std::size_t n) {
  protocol::Trace t;
  core::Rng rng(77);
  for (std::size_t i = 0; i < n; ++i) {
    protocol::TraceRecord r;
    r.t_s = static_cast<double>(i) * 5.0;
    r.rssi_dbm = rng.uniform(-85.0, -55.0);
    r.noise_dbm = rng.uniform(-95.0, -70.0);
    for (std::size_t j = rng.index(4); j-- > 0;) {
      r.offsets_s.push_back(rng.normal(0.0, 0.01));
    }
    t.records.push_back(std::move(r));
  }
  return t;
}

TEST(QueryTracer, ParallelTunerSearchTracesSafelyAndIdentically) {
  // Every replayed round appends to the shared bounded store from a
  // worker thread; the search result must stay bit-identical to the
  // serial run and the store must stay consistent (this test doubles as
  // the TSan exercise wired in tests/CMakeLists.txt).
  const protocol::Trace trace = make_noisy_trace(720);
  protocol::tuner::SearchSpace space;
  space.warmup_periods = {core::Duration::minutes(30)};
  space.warmup_wait_times = {core::Duration::seconds(15)};
  space.regular_wait_times = {core::Duration::minutes(5),
                              core::Duration::minutes(15)};
  space.reset_periods = {core::Duration::hours(4)};

  auto run = [&](std::size_t threads) {
    Telemetry telemetry;
    ScopedTelemetry scope(telemetry);
    telemetry.query_tracer().set_enabled(true);
    auto entries = protocol::tuner::search(trace, space, {.threads = threads});
    const auto traces = telemetry.query_tracer().snapshot();
    return std::make_pair(std::move(entries), traces.size());
  };

  const auto [serial, serial_traces] = run(1);
  const auto [parallel, parallel_traces] = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].rmse_ms, parallel[i].rmse_ms) << "entry " << i;
    EXPECT_EQ(serial[i].requests, parallel[i].requests) << "entry " << i;
  }
  // Same replays → same number of minted rounds, whatever the schedule.
  EXPECT_GT(serial_traces, 0u);
  EXPECT_EQ(serial_traces, parallel_traces);
}

TEST(QueryTracerSampling, ParallelTunerSearchSampledIsSafeAndIdentical) {
  // Workers mint concurrently, and most mints take the lock-free
  // sampled-out path while the kept ones append to the shared store
  // (the TSan exercise of the gate). Only the counts are
  // schedule-independent: ids are minted process-wide.
  const protocol::Trace trace = make_noisy_trace(720);
  protocol::tuner::SearchSpace space;
  space.warmup_periods = {core::Duration::minutes(30)};
  space.warmup_wait_times = {core::Duration::seconds(15)};
  space.regular_wait_times = {core::Duration::minutes(5),
                              core::Duration::minutes(15)};
  space.reset_periods = {core::Duration::hours(4)};

  auto run = [&](std::size_t threads) {
    Telemetry telemetry;
    ScopedTelemetry scope(telemetry);
    QueryTracer& tracer = telemetry.query_tracer();
    tracer.set_enabled(true);
    tracer.set_sampling({.sample_one_in_n = 4, .seed = 11});
    auto entries = protocol::tuner::search(trace, space, {.threads = threads});
    EXPECT_EQ(tracer.kept() + tracer.sampled_out(), tracer.minted());
    std::size_t finished = 0;
    for (const QueryTrace& t : tracer.snapshot()) finished += t.finished;
    EXPECT_EQ(finished, tracer.kept());
    return std::make_pair(std::move(entries), tracer.minted());
  };

  const auto [serial, serial_minted] = run(1);
  const auto [parallel, parallel_minted] = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].rmse_ms, parallel[i].rmse_ms) << "entry " << i;
    EXPECT_EQ(serial[i].requests, parallel[i].requests) << "entry " << i;
  }
  EXPECT_GT(serial_minted, 0u);
  EXPECT_EQ(serial_minted, parallel_minted);
}

}  // namespace
}  // namespace mntp::obs
