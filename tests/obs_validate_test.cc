// Strict artifact validation (obs::validate_artifact, `mntp-inspect
// validate`): for each of the eight artifact kinds one small valid
// artifact passes, and one mutation per rule breaks it with a message
// naming the rule (exit 1 in the CLI). Each mutation replaces the first
// occurrence of `find` in its kind's valid text. Empty and cut-off files
// are load errors (exit 2), as in every other mode.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>

#include "obs/diff.h"
#include "support/read_back.h"

namespace mntp::obs {
namespace {

enum Kind {
  kReport, kProfile, kBench, kQueryTrace, kTimeline, kDiff, kFleet, kPerfDelta
};

// One valid artifact per Kind, in Kind order.
const char* const kValid[] = {
    R"({"type":"meta","schema_version":1,"run":"unit","sim_end_ns":5000,"metric_count":3,"event_count":0}
{"type":"metric","kind":"histogram","name":"mntp.offset_ms","labels":{},"count":3,"sum":6.0,"min":1.0,"max":3.0,"p50":2.0,"p90":3.0,"p99":3.0,"buckets":[{"le":1.5,"count":1},{"le":2.5,"count":1},{"le":"inf","count":1}]}
{"type":"metric","kind":"counter","name":"net.packets","labels":{"hop":"wifi"},"value":10}
{"type":"metric","kind":"gauge","name":"sim.drift_ppm","labels":{},"value":-1.5}
)",
    R"({"traceEvents":[
{"ph":"M","name":"process_name","pid":1,"args":{"name":"unit"}},
{"ph":"X","name":"sim.run","cat":"sim","pid":1,"tid":1,"ts":0,"dur":100.5,"args":{"self_us":40.5,"depth":0}},
{"ph":"X","name":"mntp.engine.round","cat":"mntp","pid":1,"tid":1,"ts":10,"dur":60,"args":{"agg_count":3,"min_us":15,"max_us":25,"self_us":60,"depth":1}}
]}
)",
    R"({"schema_version":1,"kind":"mntp_perf_suite","reps":2,"warmup":1,
"environment":{"compiler":"gcc","build_type":"Release","build_flags":"-O2","hardware_threads":4},
"workloads":[
{"name":"engine_round","unit":"us","median_us":10.0,"mad_us":0.5,"p95_us":11.0,"min_us":9.0,"max_us":12.0,"mean_us":10.2,"samples_us":[9.0,12.0]},
{"name":"tuner_grid_slice","unit":"us","median_us":200.0,"mad_us":5.0,"p95_us":210.0,"min_us":190.0,"max_us":215.0,"mean_us":201.0,"samples_us":[190.0,215.0]}]}
)",
    R"({"type":"meta","schema_version":1,"kind":"mntp_query_trace","run":"unit","sim_end_ns":9000,"query_count":2,"dropped":1,"dropped_stages":0,"sampling":{"sample_one_in_n":2,"seed":7,"minted":5,"kept":2,"sampled_out":2}}
{"type":"query","id":1,"parent":0,"kind":"round","start_ns":100,"stages":[{"t_ns":100,"stage":"gate","reason":"ok","fields":{"rssi":-60,"open":true}},{"t_ns":900,"stage":"verdict","reason":"accepted_warmup","fields":{"phase":"warmup"}}]}
{"type":"query","id":3,"parent":1,"kind":"exchange","start_ns":200,"stages":[{"t_ns":250,"stage":"loss","reason":"loss","fields":{"hop":0}},{"t_ns":700,"stage":"verdict","reason":"timeout","fields":{}}]}
)",
    R"({"type":"meta","schema_version":1,"kind":"mntp_timeline","run":"unit","sim_end_ns":3000000000,"cadence_ns":1000000000,"series_count":2}
{"type":"series","name":"mntp.offset_ms","probe":"callback","labels":{"client":"0"},"samples":3,"stride":1,"points":[[1000000000,1.0,1.0,1.0,1.0,1],[2000000000,0.5,1.25,2.0,2.0,2]]}
{"type":"series","name":"ntp.queries","probe":"counter","labels":{},"samples":1,"stride":1,"points":[[1000000000,4.0,4.0,4.0,4.0,1]]}
)",
    R"({"schema_version":1,"kind":"mntp_diff","artifact_kind":"bench",
"a":{"path":"base.json","run":""},"b":{"path":"cand.json","run":""},
"options":{"tolerance":0.5,"abs_floor_us":200,"sigma":4,"divergence":0.25},
"significant":1,"regressions":1,"exit_hint":1,
"sections":[{"title":"workloads","entries":[
{"name":"engine_round","before":100,"after":400,"delta":300,"score":1.5,"significant":true,"regression":true,"class":"changed","note":""},
{"name":"fleet_qps","before":null,"after":50,"delta":0,"score":0,"significant":false,"regression":false,"class":"added","note":"new workload"}]}]}
)",
    R"({"kind":"mntp_fleet_report","schema_version":2,
"params":{"clients":10,"duration_s":60.000,"shards":2,"seed":1,"kod_limit_per_slice":0,"cache_bucket_ms":1.000,"batch_window_ms":5.000},
"population":{"clients":10,"sntp_clients":7,"ntp_clients":3,"wireless_clients":4,"wired_clients":6},
"totals":{"queries":20,"arrived":18,"dropped":2,"kod":1,"batches":5,"cache_hits":10,"cache_misses":7,"owd_valid":15,"owd_invalid":2},
"throughput":{"threads":2,"wall_s":0.010,"qps":2000.0,"qps_per_core":1000.0},
"servers":[{"id":"AG1","requests":10},{"id":"CI1","requests":8}],
"owd":[
{"speaker":"ntp","population":"wired","count":3,"p50_ms":10.0,"p90_ms":20.0,"p99_ms":30.0,"mean_ms":12.0,"min_ms":5.0,"max_ms":31.0},
{"speaker":"ntp","population":"wireless","count":0,"p50_ms":0.0,"p90_ms":0.0,"p99_ms":0.0,"mean_ms":0.0,"min_ms":0.0,"max_ms":0.0},
{"speaker":"sntp","population":"wired","count":4,"p50_ms":1.0,"p90_ms":2.0,"p99_ms":3.0,"mean_ms":1.5,"min_ms":0.5,"max_ms":4.0},
{"speaker":"sntp","population":"wireless","count":8,"p50_ms":1.0,"p90_ms":2.0,"p99_ms":3.0,"mean_ms":1.5,"min_ms":0.5,"max_ms":4.0}],
"category_owd":[
{"category":"cloud","count":5,"p50_ms":1.0,"p90_ms":2.0,"p99_ms":3.0,"mean_ms":1.5,"min_ms":0.5,"max_ms":4.0},
{"category":"isp","count":5,"p50_ms":1.0,"p90_ms":2.0,"p99_ms":3.0,"mean_ms":1.5,"min_ms":0.5,"max_ms":4.0},
{"category":"broadband","count":0,"p50_ms":0.0,"p90_ms":0.0,"p99_ms":0.0,"mean_ms":0.0,"min_ms":0.0,"max_ms":0.0},
{"category":"mobile","count":5,"p50_ms":1.0,"p90_ms":2.0,"p99_ms":3.0,"mean_ms":1.5,"min_ms":0.5,"max_ms":4.0}]}
)",
    R"({"schema_version":1,"kind":"mntp_perf_delta","description":"unit",
"environment":{"compiler":"gcc","build_type":"Release","build_flags":"-O2","hardware_threads":4},
"workloads":[
{"name":"engine_round","after_median_us":9.0,"after_mad_us":0.4,"before_median_us":10.0,"before_mad_us":0.5,"speedup":1.111},
{"name":"fleet_qps","after_median_us":50.0,"after_mad_us":1.0,"before_median_us":null,"note":"new workload in this PR"}],
"e2e_runs":{"testbed_h2h":{"cpu_s":[1.0,1.1]}}}
)",
};

struct Mutation {
  Kind kind;
  const char* find;
  const char* replace;
  const char* rule;  // a substring of the error message
};

// One row per rejection rule; keep each row on one line.
const Mutation kMutations[] = {
    // run report
    {kReport, R"("sim_end_ns":5000,)", "", "line 1: missing 'sim_end_ns'"},
    {kReport, R"("schema_version":1)", R"("schema_version":2)", "unsupported schema_version 2"},
    {kReport, R"("run":"unit")", R"("run":"")", "'run' must be a non-empty string"},
    {kReport, R"("metric_count":3)", R"("metric_count":3.0)", "'metric_count' must be an integer"},
    {kReport, R"("event_count":0)", R"("event_count":1)", "'event_count' must be 0"},
    {kReport, R"({"type":"meta")", R"({"type":"metric")", "first line is not a meta object"},
    {kReport, R"({"type":"metric","kind":"counter")", R"({"type":"meta","kind":"counter")", "line 3: duplicate meta line"},
    {kReport, R"({"type":"metric","kind":"gauge")", R"({"type":"event","kind":"gauge")", "unknown line type 'event'"},
    {kReport, "}\n{\"type\":\"metric\",\"kind\":\"gauge\"", "}\n\n{\"type\":\"metric\",\"kind\":\"gauge\"", "line 4 is blank"},
    {kReport, R"("kind":"gauge")", R"("kind":"summary")", "unknown kind 'summary'"},
    {kReport, R"("name":"sim.drift_ppm")", R"("name":"")", "'name' must be a non-empty string"},
    {kReport, R"("labels":{"hop":"wifi"})", R"("labels":{"hop":1})", "'labels' must be a string-to-string object"},
    {kReport, R"("value":-1.5)", R"("value":"x")", "'value' must be a number"},
    {kReport, R"("value":10)", R"("value":-10)", "'value' must be a number >= 0"},
    {kReport, R"("name":"net.packets")", R"("name":"a.packets")", "not sorted by name"},
    {kReport, R"("metric_count":3)", R"("metric_count":2)", "metric_count 2 != 3 metric lines"},
    {kReport, R"("sum":6.0,)", "", "missing 'sum'"},
    {kReport, R"("count":3,"sum")", R"("count":3.5,"sum")", "'count' must be an integer"},
    {kReport, R"("buckets":[{"le":1.5,"count":1},{"le":2.5,"count":1},{"le":"inf","count":1}])", R"("buckets":[])", "'buckets' must be a non-empty array"},
    {kReport, R"({"le":1.5,"count":1})", R"({"le":1.5,"count":1,"x":0})", "buckets[0]: must have exactly 'le' and 'count'"},
    {kReport, R"({"le":2.5,"count":1})", R"({"le":2.5,"count":-1})", "buckets[1]: 'count' must be an integer >= 0"},
    {kReport, R"({"le":"inf","count":1})", R"({"le":3.5,"count":1})", "the last 'le' must be \"inf\""},
    {kReport, R"({"le":1.5,)", R"({"le":"1.5",)", "'le' must be a number"},
    {kReport, R"({"le":2.5,)", R"({"le":1.0,)", "bounds must ascend"},
    {kReport, R"("count":3,"sum")", R"("count":4,"sum")", "bucket counts sum to 3, 'count' is 4"},
    {kReport, R"("min":1.0,"max":3.0)", R"("min":4.0,"max":3.0)", "min > max"},
    {kReport, R"("p50":2.0,"p90":3.0)", R"("p50":3.5,"p90":3.0)", "p50<=p90<=p99"},
    // profile
    {kProfile, R"("traceEvents":[)", R"("traceEvents":7,"events":[)", "'traceEvents' must be an array"},
    {kProfile, R"({"ph":"X","name":"sim.run")", R"({"ph":"B","name":"sim.run")", "traceEvents[1]: unexpected phase 'B'"},
    {kProfile, R"("cat":"sim",)", "", "missing 'cat'"},
    {kProfile, R"("name":"sim.run")", R"("name":"")", "'name' must be a non-empty string"},
    {kProfile, R"("ts":10)", R"("ts":-10)", "'ts' must be a number >= 0"},
    {kProfile, R"("dur":60)", R"("dur":"60")", "'dur' must be a number"},
    {kProfile, R"("args":{"self_us":40.5,"depth":0})", R"("args":[])", "'args' must be an object"},
    {kProfile, R"(,"depth":0})", "}", "args: missing 'depth'"},
    {kProfile, R"("self_us":60,)", R"("self_us":60.5,)", "'self_us' 60.5 exceeds dur 60"},
    {kProfile, R"("self_us":40.5)", R"("self_us":-1)", "'self_us' must be a number >= 0"},
    {kProfile, R"("depth":1})", R"("depth":1.5})", "'depth' must be an integer"},
    {kProfile, R"("agg_count":3)", R"("agg_count":"many")", "traceEvents[2]: args: 'agg_count' must be an integer >= 1"},
    {kProfile, R"("min_us":15)", R"("min_us":"15")", "args: 'min_us' must be a number >= 0"},
    {kProfile, R"("max_us":25)", R"("max_us":null)", "args: 'max_us' must be a number >= 0"},
    {kProfile, R"("min_us":15,"max_us":25)", R"("min_us":90,"max_us":5)", "args: 'min_us' 90 exceeds 'max_us' 5"},
    // perf-suite results
    {kBench, R"("schema_version":1)", R"("schema_version":2)", "unsupported schema_version 2"},
    {kBench, R"("reps":2)", R"("reps":0)", "'reps' must be an integer >= 1"},
    {kBench, R"("warmup":1)", R"("warmup":-1)", "'warmup' must be an integer >= 0"},
    {kBench, R"("environment":{)", R"("env":{)", "missing 'environment'"},
    {kBench, R"("compiler":"gcc")", R"("compiler":7)", "environment: 'compiler' must be a string"},
    {kBench, R"("hardware_threads":4)", R"("hardware_threads":4.5)", "'hardware_threads' must be an integer"},
    {kBench, R"("workloads":[)", R"("workloads":[],"rows":[)", "'workloads' must be a non-empty array"},
    {kBench, R"("name":"tuner_grid_slice")", R"("name":"engine_round")", "workloads[1]: duplicate workload name 'engine_round'"},
    {kBench, R"("unit":"us","median_us":10.0)", R"("unit":"ms","median_us":10.0)", "'unit' must be \"us\""},
    {kBench, R"("mad_us":0.5)", R"("mad_us":-0.5)", "'mad_us' must be a number >= 0"},
    {kBench, R"([9.0,12.0])", R"([9.0,"12"])", "'samples_us' must be an array of numbers"},
    {kBench, R"([9.0,12.0])", R"([9.0,12.0,10.0])", "3 samples but reps is 2"},
    {kBench, R"("p95_us":11.0)", R"("p95_us":13.0)", "min<=median<=p95<=max"},
    // query trace
    {kQueryTrace, R"(,"dropped_stages":0)", "", "missing 'dropped_stages'"},
    {kQueryTrace, R"("schema_version":1)", R"("schema_version":99)", "unsupported schema_version 99"},
    {kQueryTrace, R"("sampling":{"sample_one_in_n":2,"seed":7,"minted":5,"kept":2,"sampled_out":2})", R"("sampling":[])", "'sampling' must be an object"},
    {kQueryTrace, R"("sample_one_in_n":2)", R"("sample_one_in_n":0)", "sampling: 'sample_one_in_n' must be an integer >= 1"},
    {kQueryTrace, R"("seed":7,)", "", "sampling: missing 'seed'"},
    {kQueryTrace, R"("minted":5)", R"("minted":6)", "accounting broken: minted 6 != kept 2 + sampled_out 2 + dropped 1"},
    {kQueryTrace, R"("kept":2,"sampled_out":2)", R"("kept":1,"sampled_out":3)", "query_count 2 != kept 1"},
    {kQueryTrace, R"("query_count":2,"dropped":1,"dropped_stages":0,"sampling":{"sample_one_in_n":2,"seed":7,"minted":5,"kept":2,"sampled_out":2})", R"("query_count":3,"dropped":1,"dropped_stages":0)", "meta query_count 3 != 2 query lines"},
    {kQueryTrace, R"({"type":"query","id":3)", R"({"type":"meta","id":3)", "line 3: duplicate meta line"},
    {kQueryTrace, R"({"type":"query","id":3)", R"({"type":"event","id":3)", "unknown line type 'event'"},
    {kQueryTrace, R"("parent":1,)", "", "missing 'parent'"},
    {kQueryTrace, R"("id":1,)", R"("id":0,)", "'id' must be an integer >= 1"},
    {kQueryTrace, R"("id":3,)", R"("id":1,)", "query ids must be strictly increasing (1 after 1)"},
    {kQueryTrace, R"("parent":1)", R"("parent":-1)", "'parent' must be an integer >= 0"},
    {kQueryTrace, R"("kind":"exchange")", R"("kind":"")", "'kind' must be a non-empty string"},
    {kQueryTrace, R"("start_ns":200)", R"("start_ns":200.5)", "'start_ns' must be an integer"},
    {kQueryTrace, R"("stages":[{"t_ns":250)", R"("stages":{},"rows":[{"t_ns":250)", "'stages' must be an array"},
    {kQueryTrace, R"(,"fields":{}})", "}", "stages[1]: missing 'fields'"},
    {kQueryTrace, R"("t_ns":250,)", R"("t_ns":250.5,)", "'t_ns' must be an integer"},
    {kQueryTrace, R"("stage":"loss")", R"("stage":"")", "'stage' must be a non-empty string"},
    {kQueryTrace, R"("reason":"timeout")", R"("reason":"timed_out")", "unknown reason 'timed_out'"},
    {kQueryTrace, R"("fields":{"hop":0})", R"("fields":[0])", "'fields' must be an object"},
    {kQueryTrace, R"("fields":{"hop":0})", R"("fields":{"":0})", "field keys must be non-empty"},
    {kQueryTrace, R"("fields":{"hop":0})", R"("fields":{"hop":[0]})", "field 'hop' must be a string, bool or number"},
    {kQueryTrace, R"("t_ns":250,)", R"("t_ns":150,)", "'t_ns' 150 precedes 200"},
    {kQueryTrace, R"("t_ns":700,)", R"("t_ns":240,)", "'t_ns' 240 precedes 250"},
    {kQueryTrace, R"("stage":"gate")", R"("stage":"verdict")", "line 2: stages[0]: the 'verdict' stage must be last"},
    // timeline
    {kTimeline, R"("cadence_ns":1000000000)", R"("cadence_ns":0)", "'cadence_ns' must be an integer >= 1"},
    {kTimeline, R"("run":"unit",)", "", "missing 'run'"},
    {kTimeline, R"("series_count":2)", R"("series_count":3)", "meta series_count 3 != 2 series lines"},
    {kTimeline, R"({"type":"series","name":"ntp.queries")", R"({"type":"meta","name":"ntp.queries")", "duplicate meta line"},
    {kTimeline, R"({"type":"series","name":"ntp.queries")", R"({"type":"sample","name":"ntp.queries")", "unknown line type 'sample'"},
    {kTimeline, R"("name":"ntp.queries")", R"("name":"")", "'name' must be a non-empty string"},
    {kTimeline, R"("probe":"counter")", R"("probe":"poll")", "unknown probe 'poll'"},
    {kTimeline, R"("labels":{"client":"0"})", R"("labels":{"client":0})", "'labels' must be a string-to-string object"},
    {kTimeline, R"("samples":1)", R"("samples":0)", "'samples' must be an integer >= 1"},
    {kTimeline, R"("stride":1,)", R"("stride":1.0,)", "'stride' must be an integer"},
    {kTimeline, R"("points":[[1000000000,4.0,4.0,4.0,4.0,1]])", R"("points":[])", "'points' must be a non-empty array"},
    {kTimeline, R"([1000000000,4.0,4.0,4.0,4.0,1])", R"([1000000000,4.0,4.0,4.0,4.0])", "must be a [t_ns,min,mean,max,last,count] array"},
    {kTimeline, R"([2000000000,)", R"([2000000000.5,)", "points[1]: 't_ns' must be an integer"},
    {kTimeline, R"([2000000000,)", R"([1000000000,)", "t_ns 1000000000 not after 1000000000"},
    {kTimeline, R"(0.5,1.25,2.0)", R"(0.5,null,2.0)", "'mean' must be a number"},
    {kTimeline, R"(2.0,2.0,2]])", R"(2.0,2.0,0]])", "'count' must be an integer >= 1"},
    {kTimeline, R"(0.5,1.25,2.0,2.0)", R"(0.5,2.5,2.0,2.0)", "needs min<=mean<=max"},
    {kTimeline, R"(0.5,1.25,2.0,2.0)", R"(0.5,1.25,2.0,3.0)", "needs min<=last<=max"},
    {kTimeline, R"("samples":3)", R"("samples":4)", "point counts sum to 3, 'samples' is 4"},
    // diff record
    {kDiff, R"("schema_version":1)", R"("schema_version":3)", "unsupported schema_version 3"},
    {kDiff, R"("artifact_kind":"bench")", R"("artifact_kind":"fleet")", "unknown artifact_kind 'fleet'"},
    {kDiff, R"("a":{"path":"base.json","run":""},)", "", "missing 'a'"},
    {kDiff, R"("path":"cand.json","run":"")", R"("path":"cand.json","run":null)", "b: 'run' must be a string"},
    {kDiff, R"("sigma":4)", R"("sigma":"4")", "options: 'sigma' must be a number"},
    {kDiff, R"("significant":1,"regressions")", R"("significant":-1,"regressions")", "'significant' must be an integer >= 0"},
    {kDiff, R"("exit_hint":1)", R"("exit_hint":2)", "'exit_hint' must be 0 or 1"},
    {kDiff, R"("sections":[)", R"("sections":{},"rows":[)", "'sections' must be an array"},
    {kDiff, R"("title":"workloads")", R"("title":"")", "'title' must be a non-empty string"},
    {kDiff, R"("entries":[)", R"("rows":[)", "sections[0]: missing 'entries'"},
    {kDiff, R"("name":"fleet_qps")", R"("name":"")", "entries[1]: 'name' must be a non-empty string"},
    {kDiff, R"("before":null)", R"("before":"n/a")", "'before' must be a number or null"},
    {kDiff, R"("delta":300,)", "", "missing 'delta'"},
    {kDiff, R"("significant":false)", R"("significant":0)", "'significant' must be a boolean"},
    {kDiff, R"("significant":true,"regression":true)", R"("significant":false,"regression":true)", "a regression must also be significant"},
    {kDiff, R"("class":"added")", R"("class":"new")", "unknown class 'new'"},
    {kDiff, R"("note":"")", R"("note":null)", "'note' must be a string"},
    {kDiff, R"("significant":1,"regressions")", R"("significant":2,"regressions")", "'significant' is 2 but entries flag 1"},
    {kDiff, R"("regressions":1)", R"("regressions":0)", "'regressions' is 0 but entries flag 1"},
    {kDiff, R"("exit_hint":1)", R"("exit_hint":0)", "exit_hint 0 inconsistent with 1 regression(s)"},
    // fleet report
    {kFleet, R"("schema_version":2)", R"("schema_version":1)", "unsupported schema_version 1"},
    {kFleet, R"("params":{)", R"("parameters":{)", "missing 'params'"},
    {kFleet, R"("seed":1)", R"("seed":-1)", "params: 'seed' must be an integer >= 0"},
    {kFleet, R"("duration_s":60.000)", R"("duration_s":0)", "'duration_s' must be a number > 0"},
    {kFleet, R"("sntp_clients":7)", R"("sntp_clients":8)", "sntp_clients + ntp_clients != clients"},
    {kFleet, R"("wireless_clients":4)", R"("wireless_clients":5)", "wireless_clients + wired_clients != clients"},
    {kFleet, R"("params":{"clients":10)", R"("params":{"clients":11)", "clients != params.clients"},
    {kFleet, R"("batches":5)", R"("batches":5.0)", "totals: 'batches' must be an integer"},
    {kFleet, R"("queries":20)", R"("queries":21)", "queries != arrived + dropped"},
    {kFleet, R"("cache_hits":10)", R"("cache_hits":11)", "cache_hits + cache_misses != arrived - kod"},
    {kFleet, R"("owd_invalid":2)", R"("owd_invalid":3)", "owd_valid + owd_invalid != arrived - kod"},
    {kFleet, R"("threads":2)", R"("threads":0)", "'threads' must be an integer >= 1"},
    {kFleet, R"("qps":2000.0)", R"("qps":-1)", "'qps' must be a number >= 0"},
    {kFleet, R"("servers":[)", R"("servers":[],"rows":[)", "'servers' must be a non-empty array"},
    {kFleet, R"("id":"CI1")", R"("id":"AG1")", "servers[1]: duplicate id 'AG1'"},
    {kFleet, R"("requests":8)", R"("requests":9)", "per-server requests sum to 19, totals.arrived is 18"},
    {kFleet, R"({"speaker":"ntp","population":"wireless","count":0,"p50_ms":0.0,"p90_ms":0.0,"p99_ms":0.0,"mean_ms":0.0,"min_ms":0.0,"max_ms":0.0},)", "", "'owd' must hold the 4 speaker x population rows"},
    {kFleet, R"("count":3,)", R"("count":3.0,)", "owd[0]: 'count' must be an integer"},
    {kFleet, R"("p50_ms":10.0)", R"("p50_ms":25.0)", "quantiles must satisfy p50<=p90<=p99"},
    {kFleet, R"("min_ms":5.0)", R"("min_ms":35.0)", "min_ms > max_ms"},
    {kFleet, R"("mean_ms":12.0)", R"("mean_ms":-12.0)", "'mean_ms' must be a number >= 0"},
    {kFleet, R"("speaker":"ntp")", R"("speaker":"ptp")", "unknown speaker 'ptp'"},
    {kFleet, R"("population":"wired","count":3)", R"("population":"cellular","count":3)", "unknown population 'cellular'"},
    {kFleet, R"("speaker":"ntp","population":"wireless")", R"("speaker":"ntp","population":"wired")", "owd[1]: duplicate class ntp/wired"},
    {kFleet, R"("count":8,)", R"("count":9,)", "owd row counts sum to 16, totals.owd_valid is 15"},
    {kFleet, R"("category_owd":[)", R"("category_owd":7,"rows":[)", "'category_owd' must be an array"},
    {kFleet, R"("category":"isp")", R"("category":"cloud")", "category_owd[1]: expected category 'isp'"},
    {kFleet, R"("category":"cloud","count":5)", R"("category":"cloud","count":6)", "category_owd counts sum to 16, totals.owd_valid is 15"},
    // perf delta
    {kPerfDelta, R"("schema_version":1)", R"("schema_version":2)", "unsupported schema_version 2"},
    {kPerfDelta, R"("environment":{)", R"("env":{)", "missing 'environment'"},
    {kPerfDelta, R"("hardware_threads":4)", R"("hardware_threads":"4")", "environment: 'hardware_threads' must be an integer"},
    {kPerfDelta, R"("workloads":[)", R"("workloads":[],"rows":[)", "'workloads' must be a non-empty array"},
    {kPerfDelta, R"("name":"fleet_qps")", R"("name":"engine_round")", "workloads[1]: duplicate workload name 'engine_round'"},
    {kPerfDelta, R"("name":"engine_round")", R"("name":"")", "workloads[0]: 'name' must be a non-empty string"},
    {kPerfDelta, R"("after_median_us":9.0,)", "", "workloads[0]: missing 'after_median_us'"},
    {kPerfDelta, R"("before_median_us":null)", R"("before_median_us":"n/a")", "workloads[1]: 'before_median_us' must be a number or null"},
};

std::string write_file(const std::string& name, const std::string& content) {
  const std::string path = test::temp_path(name);
  std::ofstream out(path);
  out << content;
  EXPECT_TRUE(out.good()) << path;
  return path;
}

TEST(Validate, EveryValidArtifactPasses) {
  const char* const summaries[] = {
      "report: 3 metric lines, run 'unit'", "profile: 2 spans",
      "bench: 2 workloads, 2 reps", "query-trace: 2 query lines",
      "timeline: 2 series lines", "diff: bench diff with 2 entries",
      "fleet: 10 clients, 20 queries", "perf-delta: 2 workloads"};
  for (int kind = kReport; kind <= kPerfDelta; ++kind) {
    auto r = validate_artifact(
        write_file("valid_" + std::to_string(kind), kValid[kind]));
    ASSERT_TRUE(r.ok()) << kind << ": " << r.error().message;
    EXPECT_THAT(r.value(), ::testing::HasSubstr(summaries[kind]));
  }
}

TEST(Validate, Uint64SeedsPass) {
  // Seeds are uint64: the largest one a producer can write is valid.
  const std::pair<Kind, std::string> seeds[] = {{kQueryTrace, "\"seed\":7"},
                                                {kFleet, "\"seed\":1"}};
  for (const auto& [kind, find] : seeds) {
    std::string text = kValid[kind];
    text.replace(text.find(find), find.size(),
                 "\"seed\":18446744073709551615");
    auto r = validate_artifact(write_file("seed", text));
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  }
}

TEST(Validate, EachMutationBreaksTheRuleItNames) {
  int i = 0;
  for (const Mutation& m : kMutations) {
    std::string text = kValid[m.kind];
    const std::size_t at = text.find(m.find);
    ASSERT_NE(at, std::string::npos) << m.find;
    text.replace(at, std::string(m.find).size(), m.replace);
    auto r = validate_artifact(
        write_file("mutation_" + std::to_string(i++), text));
    if (r.ok()) {
      ADD_FAILURE() << "accepted: " << m.find << " -> " << m.replace;
      continue;
    }
    EXPECT_EQ(r.error().code, core::Error::Code::kInvalidArgument);
    EXPECT_THAT(r.error().message, ::testing::HasSubstr(m.rule))
        << m.find << " -> " << m.replace;
  }
}

TEST(Validate, EmptyAndCutOffFilesAreLoadErrors) {
  const std::string report = kValid[kReport];
  for (const std::string& text :
       {std::string(), std::string(" \n"),
        report.substr(0, report.rfind("\"value\""))}) {
    auto r = validate_artifact(write_file("cut.jsonl", text));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, core::Error::Code::kMalformedPacket)
        << r.error().message;
  }
  auto missing = validate_artifact("/nonexistent/artifact.json");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, core::Error::Code::kIo);
}

TEST(Validate, UnknownDocumentsAreRejected) {
  for (const char* text :
       {R"({"kind":"mntp_perf_delta","schema_version":1})",
        R"({"type":"meta","kind":"mntp_trace_events","schema_version":1})",
        R"([1,2,3])"}) {
    auto r = validate_artifact(write_file("unknown.json", text));
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.error().code, core::Error::Code::kInvalidArgument) << text;
  }
}

}  // namespace
}  // namespace mntp::obs
