// Performance-baseline suite: named workloads over the hot subsystems,
// timed with warmup + repetitions, summarized robustly (median / MAD /
// p95 — medians because wall time on shared machines is contaminated by
// scheduling noise) and written as BENCH_results.json in a stable schema
// that `mntp-inspect diff` gates against the committed
// BENCH_baseline.json.
//
//   build/bench/perf_suite --reps 9 --warmup 2 --out BENCH_results.json
//
// Flags: --reps N (timed repetitions, default 9), --warmup N (untimed
// shakeout reps, default 2), --out PATH (default BENCH_results.json),
// --workload NAME (run just one), plus the common --telemetry-out /
// --profile-out harness flags (the suite is itself instrumented: a
// profiled run writes per-span aggregates of every workload, the form
// BENCH_baseline_profile.json is committed in).
//
// Workloads are sized for seconds-not-minutes total runtime so the
// bench-smoke CTest entry can run the full suite with --reps 2.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/format.h"
#include "core/json_writer.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/table.h"
#include "fleet/client_fleet.h"
#include "fleet/params.h"
#include "fleet/server_log.h"
#include "fleet/simulator.h"
#include "logs/analyze.h"
#include "mntp/engine.h"
#include "mntp/trace.h"
#include "mntp/tuner.h"
#include "net/wireless_channel.h"
#include "obs/telemetry.h"
#include "sim/simulation.h"

// Build metadata injected by bench/CMakeLists.txt; the fallbacks keep
// the file compiling standalone.
#ifndef MNTP_BUILD_TYPE
#define MNTP_BUILD_TYPE "unknown"
#endif
#ifndef MNTP_BUILD_FLAGS
#define MNTP_BUILD_FLAGS ""
#endif

using namespace mntp;

namespace {

struct Workload {
  std::string name;
  std::function<void()> run;  ///< one timed repetition
};

struct WorkloadResult {
  std::string name;
  std::vector<double> samples_us;
  double median_us = 0.0;
  double mad_us = 0.0;
  double p95_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
  double mean_us = 0.0;
};

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median absolute deviation: the robust spread the diff gate uses to
/// judge whether a regression exceeds run-to-run noise.
double mad(std::vector<double> xs, double median) {
  for (double& x : xs) x = std::fabs(x - median);
  return core::percentile(xs, 50.0);
}

/// Run `warmup` untimed then `reps` timed rounds, interleaved: round i
/// runs every workload once before round i+1 runs any, so workloads
/// compared within one run (the telemetry-off budget pair) sample the
/// same host state rather than states seconds apart. Odd rounds run the
/// list backwards, so no workload always follows the same neighbour.
std::vector<std::vector<double>> run_rounds(
    const std::vector<Workload>& workloads, std::size_t warmup,
    std::size_t reps) {
  std::vector<std::vector<double>> samples_us(workloads.size());
  for (std::size_t round = 0; round < warmup + reps; ++round) {
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const std::size_t k = round % 2 == 0 ? i : workloads.size() - 1 - i;
      const double t0 = now_us();
      workloads[k].run();
      if (round >= warmup) samples_us[k].push_back(now_us() - t0);
    }
  }
  return samples_us;
}

WorkloadResult summarize(std::string name, std::vector<double> samples_us) {
  WorkloadResult result;
  result.name = std::move(name);
  result.samples_us = std::move(samples_us);
  result.median_us = core::percentile(result.samples_us, 50.0);
  result.mad_us = mad(result.samples_us, result.median_us);
  result.p95_us = core::percentile(result.samples_us, 95.0);
  const auto [min_it, max_it] =
      std::minmax_element(result.samples_us.begin(), result.samples_us.end());
  result.min_us = *min_it;
  result.max_us = *max_it;
  double sum = 0.0;
  for (const double s : result.samples_us) sum += s;
  result.mean_us = sum / static_cast<double>(result.samples_us.size());
  return result;
}

/// Synthetic hint+offset trace shared by the tuner workload: `hours` of
/// 5-second capture records, deterministic under the fixed seed.
protocol::Trace make_trace(int hours) {
  protocol::Trace trace;
  core::Rng rng(9);
  const int n = hours * 720;
  trace.records.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    protocol::TraceRecord r;
    r.t_s = i * 5.0;
    r.rssi_dbm = rng.uniform(-80, -55);
    r.noise_dbm = rng.uniform(-95, -70);
    r.offsets_s = {rng.normal(0, 0.01), rng.normal(0, 0.01),
                   rng.normal(0, 0.01)};
    trace.records.push_back(std::move(r));
  }
  return trace;
}

std::vector<Workload> build_workloads() {
  std::vector<Workload> workloads;

  // MNTP engine: 20k rounds through gate/filter/trend bookkeeping. A
  // fresh engine per rep keeps the record list from growing across reps.
  workloads.push_back({"engine_round", [] {
    protocol::MntpEngine engine(protocol::head_to_head_params(),
                                core::TimePoint::epoch());
    core::Rng rng(6);
    std::int64_t t = 0;
    std::vector<double> offsets(1);
    for (int i = 0; i < 20'000; ++i) {
      t += 5'000'000'000;
      offsets[0] = rng.normal(0, 0.003);
      engine.on_round(core::TimePoint::from_ns(t), offsets);
    }
  }});

  // Telemetry self-overhead: the engine_round body under three
  // instrumentation levels, publishing each round to the engine's
  // registry counters the way MntpClient does. `off` pins the
  // disabled-telemetry budget (≤3% over engine_round — every metric
  // record degrades to one branch); `metrics` prices the sharded-counter
  // hot path; `trace` additionally mints one sampled query per round
  // (1-in-16 hash gate) with the ambient scope installed. Only the kept
  // rounds' filter decision points build payloads and take the store's
  // lock; a sampled-out round costs the mint and the scope.
  {
    auto telemetry_round = [](obs::Telemetry& tel, bool trace_rounds) {
      obs::ScopedTelemetry scope(tel);
      protocol::MntpEngine engine(protocol::head_to_head_params(),
                                  core::TimePoint::epoch());
      const protocol::EngineCounters counters(tel.metrics());
      core::Rng rng(6);
      obs::QueryTracer& tracer = tel.query_tracer();
      std::int64_t t = 0;
      std::vector<double> offsets(1);
      for (int i = 0; i < 20'000; ++i) {
        t += 5'000'000'000;
        const auto now = core::TimePoint::from_ns(t);
        offsets[0] = rng.normal(0, 0.003);
        if (trace_rounds) {
          const obs::QueryId id = tracer.begin(now, "round");
          obs::ActiveQueryScope q(tracer, id);
          counters.count_round(engine.on_round(now, offsets), true);
          tracer.finish(id, now, obs::Reason::kNone);
        } else {
          counters.count_round(engine.on_round(now, offsets), true);
        }
      }
    };
    workloads.push_back({"telemetry_overhead_off", [telemetry_round] {
      obs::Telemetry tel;
      tel.set_enabled(false);
      telemetry_round(tel, false);
    }});
    workloads.push_back({"telemetry_overhead_metrics", [telemetry_round] {
      obs::Telemetry tel;  // enabled; counters record, no tracer
      telemetry_round(tel, false);
    }});
    workloads.push_back({"telemetry_overhead_trace", [telemetry_round] {
      obs::Telemetry tel;
      obs::QueryTracer& tracer = tel.query_tracer();
      tracer.set_enabled(true);
      obs::QueryTracer::Sampling sampling;
      sampling.sample_one_in_n = 16;
      sampling.seed = 7;
      tracer.set_sampling(sampling);
      telemetry_round(tel, true);
    }});
  }

  // Tuner: a 12-config slice of the Table 2 grid over a 2-hour trace,
  // serial — thread-pool scheduling jitter stays out of the regression
  // baseline.
  {
    auto trace = std::make_shared<protocol::Trace>(make_trace(2));
    workloads.push_back({"tuner_grid_slice", [trace] {
      protocol::tuner::SearchSpace space;
      space.warmup_periods = {core::Duration::minutes(30),
                              core::Duration::minutes(60)};
      space.warmup_wait_times = {core::Duration::seconds(15),
                                 core::Duration::seconds(60)};
      space.regular_wait_times = {core::Duration::minutes(5),
                                  core::Duration::minutes(15),
                                  core::Duration::minutes(30)};
      space.reset_periods = {core::Duration::hours(4)};
      (void)protocol::tuner::search(*trace, space, {.threads = 1});
    }});
  }

  // Log pipeline: render one mid-size server log (JW2 of the §3.1
  // population at 1:200, 167 clients) and run both classification passes
  // over it. The population is built once, outside the timed body.
  {
    const fleet::FleetParams params = fleet::section31_params(1.0 / 200.0);
    auto population = std::make_shared<const fleet::ClientFleet>(
        fleet::ClientFleet::build(params));
    workloads.push_back({"log_generate_classify", [params, population] {
      const logs::ServerLog log = fleet::server_log(*population, params, 8);
      const logs::ServerStats stats = logs::LogAnalyzer::server_stats(log);
      const auto providers = logs::LogAnalyzer::provider_owd_stats(log, 1);
      // Keep the results observable so the passes cannot be elided.
      [[maybe_unused]] static volatile std::size_t sink;
      sink = stats.unique_clients + providers.size();
    }});
  }

  // Event kernel: 64 interleaved self-rescheduling chains churning 100k
  // events through the queue — dispatch + reschedule, no payload.
  workloads.push_back({"event_queue_churn", [] {
    sim::Simulation sim;
    constexpr std::size_t kTarget = 100'000;
    std::size_t fired = 0;
    core::Rng rng(12);
    std::function<void()> tick = [&] {
      if (++fired >= kTarget) return;
      sim.after(core::Duration::from_millis(rng.uniform(0.1, 10.0)),
                [&] { tick(); });
    };
    for (int chain = 0; chain < 64; ++chain) {
      sim.after(core::Duration::from_millis(rng.uniform(0.1, 10.0)),
                [&] { tick(); });
    }
    sim.run();
  }});

  // Slab + heap under cancellation pressure: schedule 50k far-out
  // timers, cancel three quarters of them (exercising tombstone purge
  // and compaction), then drain the survivors plus 50k short chains.
  workloads.push_back({"event_schedule_cancel", [] {
    sim::Simulation sim;
    core::Rng rng(13);
    std::vector<sim::EventHandle> handles;
    handles.reserve(50'000);
    [[maybe_unused]] static volatile std::size_t sink;
    std::size_t fired = 0;
    for (int i = 0; i < 50'000; ++i) {
      handles.push_back(
          sim.after(core::Duration::from_millis(rng.uniform(100.0, 200.0)),
                    [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (i % 4 != 0) handles[i].cancel();
    }
    std::function<void()> tick = [&] {
      if (++fired >= 62'500) return;
      sim.after(core::Duration::from_millis(rng.uniform(0.1, 10.0)),
                [&] { tick(); });
    };
    sim.after(core::Duration::from_millis(0.5), [&] { tick(); });
    sim.run();
    sink = fired;
  }});

  // Wireless channel: 20k acquisition-shaped interactions (hint sample +
  // both-direction transmits) spaced 5 s apart. The exact OU advance
  // costs the same at any gap, so the per-frame kernel sets the cost.
  workloads.push_back({"channel_transmit", [] {
    net::WirelessChannel channel({}, core::Rng(14));
    channel.set_utilization(0.35);
    [[maybe_unused]] static volatile std::size_t sink;
    std::size_t delivered = 0;
    std::int64_t t = 0;
    for (int i = 0; i < 20'000; ++i) {
      t += 5'000'000'000;
      const auto now = core::TimePoint::from_ns(t);
      const net::WirelessHints hints = channel.observe_hints(now);
      delivered += hints.rssi.value() > -200.0;  // keep hints observable
      delivered += channel.transmit_dir(now, 90, true).delivered;
      delivered += channel.transmit_dir(now, 90, false).delivered;
    }
    sink = delivered;
  }});

  // Replication harness: fan 16 small engine scenarios out over 4 pool
  // threads — measures per-replicate dispatch + aggregation overhead on
  // top of the scenario cost.
  workloads.push_back({"replicate_fanout", [] {
    sim::ReplicationRunner runner({.replicates = 16, .threads = 4});
    const sim::ReplicateReport report = runner.run(
        99, [](std::uint64_t seed, std::size_t) {
          protocol::MntpEngine engine(protocol::head_to_head_params(),
                                      core::TimePoint::epoch());
          core::Rng rng(seed);
          std::int64_t t = 0;
          std::vector<double> offsets(1);
          for (int i = 0; i < 2'000; ++i) {
            t += 5'000'000'000;
            offsets[0] = rng.normal(0, 0.003);
            engine.on_round(core::TimePoint::from_ns(t), offsets);
          }
          return std::vector<sim::MetricValue>{
              {"accepted", static_cast<double>(
                               engine.accepted_offsets_ms().size())}};
        });
    [[maybe_unused]] static volatile std::size_t sink;
    sink = static_cast<std::size_t>(report.median("accepted"));
  }});

  // Fleet simulator: 50k clients advanced through 30 sim-seconds of
  // time-sliced shard processing plus the server-side batching / cache /
  // KoD pipeline, single-threaded (the per-core number the gate tracks;
  // thread scaling belongs to fleet_qps --threads). The population is
  // built once and shared across reps — run() builds its mutable state.
  {
    fleet::FleetParams params;
    params.clients = 50'000;
    params.duration_s = 30.0;
    params.shards = 16;
    params.seed = 21;
    auto fleet_pop = std::make_shared<const fleet::ClientFleet>(
        fleet::ClientFleet::build(params));
    workloads.push_back({"fleet_qps", [fleet_pop, params] {
      fleet::Simulator sim(fleet_pop, params);
      const fleet::FleetResult result = sim.run(1);
      [[maybe_unused]] static volatile std::size_t sink;
      sink = static_cast<std::size_t>(result.queries);
    }});
  }

  return workloads;
}

/// BENCH_results.json schema v1 (validated by `mntp-inspect validate`,
/// gated by `mntp-inspect diff`):
/// {schema_version, kind:"mntp_perf_suite", reps, warmup,
///  environment{compiler, build_type, build_flags, hardware_threads},
///  workloads:[{name, unit:"us", median_us, mad_us, p95_us, min_us,
///              max_us, mean_us, samples_us:[...]}]}
bool write_results(const std::string& path, std::size_t reps,
                   std::size_t warmup,
                   const std::vector<WorkloadResult>& results) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::string text;
  core::JsonWriter w(text, /*indent=*/2);
  w.begin_object()
      .kv("schema_version", std::int64_t{1})
      .kv("kind", "mntp_perf_suite")
      .kv("reps", static_cast<std::int64_t>(reps))
      .kv("warmup", static_cast<std::int64_t>(warmup))
      .key("environment")
      .begin_object()
      .kv("compiler", __VERSION__)
      .kv("build_type", MNTP_BUILD_TYPE)
      .kv("build_flags", MNTP_BUILD_FLAGS)
      .kv("hardware_threads",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .end_object()
      .key("workloads")
      .begin_array();
  for (const WorkloadResult& r : results) {
    w.begin_object()
        .kv("name", r.name)
        .kv("unit", "us")
        .key("median_us")
        .value_fixed(r.median_us, 3)
        .key("mad_us")
        .value_fixed(r.mad_us, 3)
        .key("p95_us")
        .value_fixed(r.p95_us, 3)
        .key("min_us")
        .value_fixed(r.min_us, 3)
        .key("max_us")
        .value_fixed(r.max_us, 3)
        .key("mean_us")
        .value_fixed(r.mean_us, 3)
        .key("samples_us")
        .begin_array();
    for (const double s : r.samples_us) w.value_fixed(s, 3);
    w.end_array().end_object();
  }
  w.end_array().end_object();
  out << text << "\n";
  return static_cast<bool>(out.flush());
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchTelemetry telemetry("perf_suite", argc, argv);
  const std::size_t reps =
      std::max<std::size_t>(1, bench::parse_size_flag(argc, argv, "--reps", 9));
  const std::size_t warmup =
      bench::parse_size_flag(argc, argv, "--warmup", 2);
  std::string out_path = bench::parse_flag(argc, argv, "--out");
  if (out_path.empty()) out_path = "BENCH_results.json";
  const std::string only = bench::parse_flag(argc, argv, "--workload");
  bench::reject_unknown_flags(argc, argv);

  std::printf("== MNTP perf suite: %zu reps (+%zu warmup) ==\n", reps, warmup);
  std::vector<Workload> workloads = build_workloads();
  std::erase_if(workloads, [&](const Workload& w) {
    return !only.empty() && w.name != only;
  });
  if (workloads.empty()) {
    std::fprintf(stderr, "no workload matched --workload %s\n", only.c_str());
    return 2;
  }
  std::vector<std::vector<double>> samples_us =
      run_rounds(workloads, warmup, reps);
  std::vector<WorkloadResult> results;
  for (std::size_t k = 0; k < workloads.size(); ++k) {
    results.push_back(summarize(workloads[k].name, std::move(samples_us[k])));
    const WorkloadResult& r = results.back();
    std::printf("  %-22s median %10.1f us  mad %8.1f  p95 %10.1f\n",
                r.name.c_str(), r.median_us, r.mad_us, r.p95_us);
  }

  core::TextTable table({"workload", "median_us", "mad_us", "p95_us",
                         "min_us", "max_us"});
  for (const WorkloadResult& r : results) {
    table.add_row({r.name, core::strformat("%.1f", r.median_us),
                   core::strformat("%.1f", r.mad_us),
                   core::strformat("%.1f", r.p95_us),
                   core::strformat("%.1f", r.min_us),
                   core::strformat("%.1f", r.max_us)});
  }
  std::printf("\n%s\n", table.render().c_str());

  if (!write_results(out_path, reps, warmup, results)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("results: %s (%zu workloads)\n", out_path.c_str(),
              results.size());
  telemetry.finalize(core::TimePoint::epoch());
  return 0;
}
