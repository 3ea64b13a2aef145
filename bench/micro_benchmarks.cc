// Microbenchmarks (google-benchmark): the hot paths a deployed MNTP/SNTP
// implementation exercises per packet/sample, plus simulation throughput.
#include <benchmark/benchmark.h>

#include "core/fixed_function.h"
#include "core/linreg.h"
#include "core/rng.h"
#include "mntp/drift_filter.h"
#include "mntp/engine.h"
#include "mntp/trace.h"
#include "mntp/tuner.h"
#include "logs/generate.h"
#include "net/wireless_channel.h"
#include "ntp/clock_filter.h"
#include "ntp/packet.h"
#include "ntp/selection.h"
#include "ntp/testbed.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "sim/event_queue.h"

using namespace mntp;

namespace {

void BM_PacketSerialize(benchmark::State& state) {
  ntp::NtpPacket p = ntp::NtpPacket::make_sntp_request(
      core::NtpTimestamp::from_parts(123456, 789));
  std::array<std::uint8_t, ntp::NtpPacket::kWireSize> buf{};
  for (auto _ : state) {
    p.serialize(buf);
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_PacketSerialize);

void BM_PacketParse(benchmark::State& state) {
  const auto wire = ntp::NtpPacket::make_sntp_request(
                        core::NtpTimestamp::from_parts(123456, 789))
                        .to_bytes();
  for (auto _ : state) {
    auto parsed = ntp::NtpPacket::parse(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_PacketParse);

void BM_ClockFilterUpdate(benchmark::State& state) {
  ntp::ClockFilter filter;
  core::Rng rng(1);
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 1'000'000'000;
    auto est = filter.update(core::Duration::from_millis(rng.normal(0, 5)),
                             core::Duration::from_millis(rng.uniform(20, 80)),
                             core::TimePoint::from_ns(t));
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_ClockFilterUpdate);

void BM_SelectionPipeline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::Rng rng(2);
  std::vector<ntp::PeerEstimate> peers;
  for (std::size_t i = 0; i < n; ++i) {
    ntp::PeerEstimate e;
    e.offset = core::Duration::from_millis(rng.normal(0, 3));
    e.delay = core::Duration::from_millis(rng.uniform(20, 80));
    e.dispersion = core::Duration::from_millis(2);
    e.jitter_s = 1e-3;
    peers.push_back(e);
  }
  for (auto _ : state) {
    auto chimers = ntp::select_truechimers(peers);
    if (!chimers.empty()) {
      chimers = ntp::cluster_survivors(peers, std::move(chimers), {});
      auto combined = ntp::combine_offsets(peers, chimers);
      benchmark::DoNotOptimize(combined);
    }
  }
}
BENCHMARK(BM_SelectionPipeline)->Arg(4)->Arg(8)->Arg(32);

void BM_DriftFilterOffer(benchmark::State& state) {
  protocol::DriftFilter filter({.bootstrap_samples = 10, .max_samples = 512});
  core::Rng rng(3);
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 5'000'000'000;
    auto d = filter.offer(core::TimePoint::from_ns(t), rng.normal(0, 0.002));
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DriftFilterOffer);

void BM_IncrementalLinReg(benchmark::State& state) {
  core::IncrementalLinReg reg;
  core::Rng rng(4);
  double x = 0;
  for (auto _ : state) {
    x += 1.0;
    reg.add(x, 2.0 * x + rng.normal(0, 0.1));
    auto fit = reg.fit();
    benchmark::DoNotOptimize(fit);
  }
}
BENCHMARK(BM_IncrementalLinReg);

void BM_WirelessChannelTransmit(benchmark::State& state) {
  net::WirelessChannel channel(net::WirelessChannelParams{}, core::Rng(5));
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 100'000'000;  // 100 ms apart
    auto r = channel.transmit_dir(core::TimePoint::from_ns(t), 76, true);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WirelessChannelTransmit);

void BM_RngNormal(benchmark::State& state) {
  core::Rng rng(7);
  for (auto _ : state) {
    double x = rng.normal(0.0, 1.0);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_RngNormal);

void BM_RngNormalFast(benchmark::State& state) {
  core::Rng rng(7);
  for (auto _ : state) {
    double x = rng.normal_fast(0.0, 1.0);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_RngNormalFast);

void BM_RngExponential(benchmark::State& state) {
  core::Rng rng(7);
  for (auto _ : state) {
    double x = rng.exponential(1.0);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_RngExponential);

void BM_RngExponentialFast(benchmark::State& state) {
  core::Rng rng(7);
  for (auto _ : state) {
    double x = rng.exponential_fast(1.0);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_RngExponentialFast);

// Publishes each round to the engine's registry counters the way
// MntpClient does, so the pair below prices the counter hot path.
void BM_EngineRound(benchmark::State& state) {
  protocol::MntpEngine engine(protocol::head_to_head_params(),
                              core::TimePoint::epoch());
  const protocol::EngineCounters counters(
      obs::Telemetry::global().metrics());
  core::Rng rng(6);
  std::int64_t t = 0;
  std::vector<double> offsets(1);
  for (auto _ : state) {
    t += 5'000'000'000;
    offsets[0] = rng.normal(0, 0.003);
    auto r = engine.on_round(core::TimePoint::from_ns(t), offsets);
    counters.count_round(r, true);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EngineRound);

// Telemetry overhead on the engine hot path, for the <5% budget in
// DESIGN.md §Observability: counters-only (the default above) vs the
// fully disabled registry vs event emission into null/ring sinks.
void BM_EngineRoundTelemetryDisabled(benchmark::State& state) {
  obs::Telemetry telemetry;
  telemetry.set_enabled(false);
  obs::ScopedTelemetry scope(telemetry);
  protocol::MntpEngine engine(protocol::head_to_head_params(),
                              core::TimePoint::epoch());
  const protocol::EngineCounters counters(telemetry.metrics());
  core::Rng rng(6);
  std::int64_t t = 0;
  std::vector<double> offsets(1);
  for (auto _ : state) {
    t += 5'000'000'000;
    offsets[0] = rng.normal(0, 0.003);
    auto r = engine.on_round(core::TimePoint::from_ns(t), offsets);
    counters.count_round(r, true);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EngineRoundTelemetryDisabled);

// Span-profiler overhead on the same hot path. BM_EngineRound above IS
// the profiler-disabled case (each on_round opens a ProfileScope that
// sees the default-off flag); comparing it against the seed's numbers
// pins the disabled-profiler cost, which must stay within 1% (DESIGN.md
// §6). This variant measures the profiler fully on.
void BM_EngineRoundProfilerEnabled(benchmark::State& state) {
  obs::Telemetry telemetry;
  telemetry.profiler().set_enabled(true);
  obs::ScopedTelemetry scope(telemetry);
  protocol::MntpEngine engine(protocol::head_to_head_params(),
                              core::TimePoint::epoch());
  core::Rng rng(6);
  std::int64_t t = 0;
  std::vector<double> offsets(1);
  for (auto _ : state) {
    t += 5'000'000'000;
    offsets[0] = rng.normal(0, 0.003);
    auto r = engine.on_round(core::TimePoint::from_ns(t), offsets);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EngineRoundProfilerEnabled);

void BM_ProfileScopeDisabled(benchmark::State& state) {
  // The bare cost a disabled ProfileScope adds to any instrumented
  // function: one current_profiler() call, one relaxed load, one branch.
  for (auto _ : state) {
    obs::ProfileScope span("bench.noop");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ProfileScopeDisabled);

void BM_QueryTraceDisabled(benchmark::State& state) {
  // The bare cost a disabled-tracer decision point adds: one
  // thread_local read and a null-tracer branch (the ambient pattern of
  // obs/query_trace.h). This is what every instrumented decision site
  // (drift_filter, false_ticker, clock_filter, channels) pays on
  // untraced runs; the ≤1% bench budget rests on it staying trivial.
  for (auto _ : state) {
    auto q = obs::ambient_query();
    benchmark::DoNotOptimize(q.tracer);
  }
}
BENCHMARK(BM_QueryTraceDisabled);

void BM_EngineRoundQueryTraceEnabled(benchmark::State& state) {
  // Engine hot path with the flight recorder fully on (engine owns the
  // round trace: mint + decision stages + verdict per on_round call).
  obs::Telemetry telemetry;
  telemetry.query_tracer().set_enabled(true);
  obs::ScopedTelemetry scope(telemetry);
  protocol::MntpEngine engine(protocol::head_to_head_params(),
                              core::TimePoint::epoch());
  core::Rng rng(6);
  std::int64_t t = 0;
  std::vector<double> offsets(1);
  for (auto _ : state) {
    t += 5'000'000'000;
    offsets[0] = rng.normal(0, 0.003);
    auto r = engine.on_round(core::TimePoint::from_ns(t), offsets);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EngineRoundQueryTraceEnabled);

void BM_MetricsCounterInc(benchmark::State& state) {
  obs::Telemetry telemetry;
  obs::ScopedTelemetry scope(telemetry);
  obs::ShardedCounter* c = telemetry.metrics().counter("bench.counter");
  for (auto _ : state) {
    c->inc();
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  obs::Telemetry telemetry;
  obs::ScopedTelemetry scope(telemetry);
  obs::ShardedHdrHistogram* h =
      telemetry.metrics().histogram("bench.histogram");
  core::Rng rng(11);
  for (auto _ : state) {
    h->record(rng.uniform(0.1, 500.0));
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_MetricsHistogramRecord);

void BM_TraceCsvRoundTrip(benchmark::State& state) {
  // The tuner's interchange path: serialize + reparse a 1-hour trace.
  protocol::Trace trace;
  core::Rng rng(8);
  for (int i = 0; i < 720; ++i) {
    protocol::TraceRecord r;
    r.t_s = i * 5.0;
    r.rssi_dbm = rng.uniform(-80, -55);
    r.noise_dbm = rng.uniform(-95, -70);
    r.offsets_s = {rng.normal(0, 0.01), rng.normal(0, 0.01), rng.normal(0, 0.01)};
    trace.records.push_back(std::move(r));
  }
  for (auto _ : state) {
    const std::string csv = trace.to_csv();
    auto parsed = protocol::Trace::from_csv(csv);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_TraceCsvRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_TunerEmulate(benchmark::State& state) {
  protocol::Trace trace;
  core::Rng rng(9);
  for (int i = 0; i < 2880; ++i) {  // 4 hours at 5 s
    protocol::TraceRecord r;
    r.t_s = i * 5.0;
    r.rssi_dbm = rng.uniform(-80, -55);
    r.noise_dbm = rng.uniform(-95, -70);
    r.offsets_s = {rng.normal(0, 0.01)};
    trace.records.push_back(std::move(r));
  }
  for (auto _ : state) {
    auto result = protocol::tuner::emulate(trace, protocol::MntpParams{});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TunerEmulate)->Unit(benchmark::kMicrosecond);

// Serial vs parallel grid search over the Table 2-shaped grid (18
// configs, 8-hour trace). Arg is the worker count; Arg(1) is the exact
// serial path (no pool is created). Throughput scaling = the Arg(1) time
// divided by the Arg(N) time.
void BM_TunerSearch(benchmark::State& state) {
  protocol::Trace trace;
  core::Rng rng(9);
  for (int i = 0; i < 5760; ++i) {  // 8 hours at 5 s
    protocol::TraceRecord r;
    r.t_s = i * 5.0;
    r.rssi_dbm = rng.uniform(-80, -55);
    r.noise_dbm = rng.uniform(-95, -70);
    r.offsets_s = {rng.normal(0, 0.01), rng.normal(0, 0.01),
                   rng.normal(0, 0.01)};
    trace.records.push_back(std::move(r));
  }
  protocol::tuner::SearchSpace space;
  space.warmup_periods = {core::Duration::minutes(30),
                          core::Duration::minutes(60),
                          core::Duration::minutes(120)};
  space.warmup_wait_times = {core::Duration::seconds(15),
                             core::Duration::seconds(60)};
  space.regular_wait_times = {core::Duration::minutes(5),
                              core::Duration::minutes(15),
                              core::Duration::minutes(30)};
  space.reset_periods = {core::Duration::hours(4)};
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto entries = protocol::tuner::search(trace, space, {.threads = threads});
    benchmark::DoNotOptimize(entries);
  }
  state.counters["configs/s"] = benchmark::Counter(
      18.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TunerSearch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Event-core primitives: the slab/heap kernel's per-event cost with no
// payload. Schedule+fire is the dominant simulation operation; the slab
// recycles one slot per iteration so steady state is allocation-free.
void BM_EventScheduleFire(benchmark::State& state) {
  sim::EventQueue queue;
  std::uint64_t fired = 0;
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 1'000;
    queue.schedule(core::TimePoint::from_ns(t), [&fired] { ++fired; });
    queue.run_next();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventScheduleFire);

void BM_EventCancelPending(benchmark::State& state) {
  // Schedule + cancel: slot release plus one heap tombstone per
  // iteration; the periodic drain pays the purge/compaction cost.
  sim::EventQueue queue;
  std::uint64_t fired = 0;
  std::int64_t t = 0;
  int batch = 0;
  for (auto _ : state) {
    t += 1'000;
    sim::EventHandle h =
        queue.schedule(core::TimePoint::from_ns(t), [&fired] { ++fired; });
    h.cancel();
    if (++batch == 1024) {
      batch = 0;
      while (!queue.empty()) queue.run_next();
    }
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventCancelPending);

void BM_FixedFunctionCall(benchmark::State& state) {
  // Invocation through the type-erased inline callable (the ops-table
  // indirect call an event dispatch pays), vs ~2x this for std::function.
  std::uint64_t count = 0;
  core::FixedFunction<void()> fn([&count] { ++count; });
  for (auto _ : state) {
    fn();
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_FixedFunctionCall);

void BM_LogGeneration(benchmark::State& state) {
  // One mid-size server (JW2, ~36k clients at 1:100) per iteration.
  for (auto _ : state) {
    logs::LogGenerator gen({.scale = 1.0 / 100.0}, core::Rng(10));
    auto log = gen.generate(8);
    benchmark::DoNotOptimize(log.clients.size());
  }
}
BENCHMARK(BM_LogGeneration)->Unit(benchmark::kMillisecond);

void BM_TestbedMinuteOfSimulation(benchmark::State& state) {
  // Wall-clock cost of simulating one minute of the full wireless
  // testbed with interference machinery running.
  for (auto _ : state) {
    state.PauseTiming();
    ntp::TestbedConfig config;
    config.seed = 7;
    config.wireless = true;
    ntp::Testbed bed(config);
    bed.start();
    state.ResumeTiming();
    bed.sim().run_until(core::TimePoint::epoch() + core::Duration::minutes(1));
    benchmark::DoNotOptimize(bed.sim().events_executed());
  }
}
BENCHMARK(BM_TestbedMinuteOfSimulation)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
