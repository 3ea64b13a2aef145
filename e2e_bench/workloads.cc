#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <system_error>

#include "core/stats.h"
#include "core/thread_pool.h"
#include "fleet/client_fleet.h"
#include "fleet/report.h"
#include "fleet/simulator.h"
#include "mntp/mntp_client.h"
#include "mntp/params.h"
#include "mntp/tuner.h"
#include "net/link.h"
#include "ntp/sntp_client.h"
#include "ntp/testbed.h"
#include "obs/metric_names.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "sim/replicate.h"

namespace mntp::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Counter totals of `metrics`, by name and by labelled series.
std::map<std::string, double> counter_totals(const obs::MetricsRegistry& metrics) {
  std::map<std::string, double> out;
  for (const obs::MetricSnapshot& m : metrics.snapshot()) {
    if (m.kind != obs::MetricSnapshot::Kind::kCounter) continue;
    out[m.name] += m.value;
    if (m.labels.empty()) continue;
    std::string key = m.name + "{";
    for (std::size_t i = 0; i < m.labels.size(); ++i) {
      key += (i == 0 ? "" : ",") + m.labels[i].first + "=" + m.labels[i].second;
    }
    out[key + "}"] += m.value;
  }
  return out;
}

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : core::percentile(xs, 50.0);
}

void add_injected_failure(const WorkloadOptions& options, BatchResult& r) {
  if (options.inject_failure) r.checks.push_back({"injected failure", false});
}

// --- testbed_h2h / testbed_observed ---------------------------------------

/// Forwards to `inner` and charges each transmit to a ledger leaf: the
/// net.sntp_hop time of the hops handed to the SNTP client.
class TimedLink final : public net::Link {
 public:
  TimedLink(net::Link& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger), slot_(ledger.leaf("net.sntp_hop")) {}

  net::TransmitResult transmit(core::TimePoint now, std::size_t bytes) override {
    const std::int64_t t0 = ledger_.now_ns();
    const net::TransmitResult result = inner_.transmit(now, bytes);
    ledger_.add_leaf(slot_, ledger_.now_ns() - t0);
    return result;
  }

 private:
  net::Link& inner_;
  Ledger& ledger_;
  Ledger::Leaf& slot_;
};

/// The Fig 12 head-to-head as bench::run_head_to_head assembles it:
/// wireless testbed, free-running clock, SNTP polling every 5 s and MNTP
/// with the head-to-head parameters, side by side on one channel. The
/// SNTP client gets timed hops when the ledger is on; the construction
/// order (and so every RNG stream) is the same either way.
struct HeadToHeadRig {
  HeadToHeadRig(const ntp::TestbedConfig& config, Ledger& ledger)
      : bed(config),
        timed_up(*bed.last_hop_up(), ledger),
        timed_down(*bed.last_hop_down(), ledger),
        sntp(bed.sim(), bed.target_clock(), bed.pool(),
             ledger.enabled() ? &timed_up : bed.last_hop_up(),
             ledger.enabled() ? &timed_down : bed.last_hop_down(),
             ntp::SntpClientPolicy{}),
        mntp(bed.sim(), bed.target_clock(), bed.pool(), bed.channel(),
             protocol::head_to_head_params(), bed.fork_rng()) {
    bed.start();
    sntp.start();
    mntp.start();
  }

  ntp::Testbed bed;
  TimedLink timed_up;
  TimedLink timed_down;
  ntp::SntpClient sntp;
  protocol::MntpClient mntp;
};

constexpr double kTestbedHours = 4.0;

/// Writes every obs/ artifact of the batch; returns bytes written, or a
/// negative value when a write failed.
double export_observability(const obs::Telemetry& telemetry,
                            const obs::RingBufferSink& ring,
                            const std::string& dir) {
  const core::TimePoint end =
      core::TimePoint::epoch() + core::Duration::from_seconds(kTestbedHours * 3600);
  const std::string base = dir + "/testbed_observed";
  const std::string paths[] = {base + "-report.jsonl", base + "-profile.json",
                               base + "-queries.jsonl",
                               base + "-timeline.jsonl"};
  bool ok = obs::write_run_report_file(paths[0], telemetry, &ring,
                                       {.run_name = "testbed_observed",
                                        .sim_end = end})
                .ok();
  ok = obs::write_chrome_trace_file(paths[1], telemetry.profiler(),
                                    "testbed_observed")
           .ok() &&
       ok;
  ok = telemetry.query_tracer().write_jsonl_file(paths[2], "testbed_observed",
                                                 end) &&
       ok;
  ok = obs::write_timeline_file(paths[3], telemetry.timeseries(),
                                "testbed_observed", end)
           .ok() &&
       ok;
  double bytes = 0.0;
  for (const std::string& p : paths) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(p, ec);
    if (ec) {
      ok = false;
    } else {
      bytes += static_cast<double>(size);
    }
  }
  return ok ? bytes : -1.0;
}

/// What one seed of the head-to-head leaves behind for the pooled result.
struct SeedOutcome {
  std::vector<double> corrected_abs_ms;
  double setup_s = 0.0;
};

/// Runs `seeds` head-to-head seeds on `options.threads` workers through
/// sim::ReplicationRunner, as `fig12_long_run --replicates K --threads N`
/// does, with every obs/ output on when `observed`.
BatchResult run_testbed(const WorkloadOptions& options, Ledger& ledger,
                        std::size_t seeds, bool observed) {
  obs::Telemetry telemetry;
  obs::RingBufferSink ring;
  if (observed) {
    telemetry.add_sink(&ring);
    telemetry.profiler().set_enabled(true);
    obs::QueryTracer& qt = telemetry.query_tracer();
    qt.set_enabled(true);
    qt.set_sampling({.sample_one_in_n = 8});
    telemetry.timeseries().set_cadence(core::Duration::seconds(1));
    telemetry.timeseries().set_enabled(true);
  }
  obs::ScopedTelemetry scope(telemetry);

  // One ledger and one outcome slot per seed: each replicate writes only
  // its own.
  std::vector<std::unique_ptr<Ledger>> seed_ledgers;
  for (std::size_t i = 0; i < seeds; ++i) {
    seed_ledgers.push_back(std::make_unique<Ledger>(ledger.enabled()));
  }
  std::vector<SeedOutcome> outcomes(seeds);
  const sim::ReplicationRunner runner({.replicates = seeds, .threads = options.threads});
  const std::int64_t t0 = ledger.now_ns();
  const sim::ReplicateReport report = runner.run(
      options.seed,
      sim::ReplicationRunner::RichScenario([&](std::uint64_t seed, std::size_t i) {
        // Like fig12_long_run --replicates: only the first seed's timeline.
        obs::TimeSeriesRecorder::SuppressScope suppress(i != 0);
        Ledger& seed_ledger = *seed_ledgers[i];
        Ledger::Scope root(seed_ledger, "bench.batch");
        ntp::TestbedConfig config;
        config.seed = seed;
        config.wireless = true;
        config.ntp_correction = false;
        const double setup_cpu = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
        std::unique_ptr<HeadToHeadRig> rig;
        {
          Ledger::Scope span(seed_ledger, "ntp.testbed_build");
          rig = std::make_unique<HeadToHeadRig>(config, seed_ledger);
        }
        outcomes[i].setup_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - setup_cpu;
        {
          Ledger::Scope span(seed_ledger, "sim.run_until");
          rig->bed.sim().run_until(core::TimePoint::epoch() +
                                   core::Duration::from_seconds(kTestbedHours * 3600));
        }
        const std::vector<double> corrected =
            rig->mntp.engine().corrected_offsets_ms();
        for (double v : corrected) outcomes[i].corrected_abs_ms.push_back(std::fabs(v));
        sim::ReplicateResult out;
        out.metrics = {
            {"sntp_max_abs_ms", core::max_abs(rig->sntp.offsets_ms())},
            {"corrected_max_ms", core::max_abs(corrected)},
            {"corrected_samples", static_cast<double>(corrected.size())},
            {"rejections", static_cast<double>(
                               rig->mntp.engine().rejected_offsets_ms().size())},
            {"mntp_requests", static_cast<double>(rig->mntp.requests_sent())},
        };
        return out;
      }));
  ledger.absorb(std::move(seed_ledgers), ledger.now_ns() - t0);

  BatchResult r;
  if (observed) {
    Ledger::Scope span(ledger, "obs.export");
    const double bytes = export_observability(telemetry, ring, options.out_dir);
    r.checks.push_back({"every obs/ artifact written", bytes > 0.0});
    r.layer_values["obs.bytes_written"] = std::max(bytes, 0.0);
  }

  // The Fig 12 shape checks pooled over seeds, as fig12_long_run
  // --replicates prints them: medians across the seed set.
  const sim::ReplicatedMetric* samples = report.find("corrected_samples");
  const sim::ReplicatedMetric* requests = report.find("mntp_requests");
  r.checks.push_back({"median SNTP max offset in the hundreds of ms",
                      report.median("sntp_max_abs_ms") > 200.0});
  r.checks.push_back({"median MNTP corrected drift below tens of ms",
                      report.median("corrected_max_ms") < 30.0});
  r.checks.push_back({"filter rejects large offsets (median)",
                      report.median("rejections") > 0.0});
  r.checks.push_back({"every seed reports corrected drift",
                      samples != nullptr && samples->summary.min > 0.0});
  add_injected_failure(options, r);

  std::vector<double> corrected_abs_ms;
  for (const SeedOutcome& o : outcomes) {
    r.setup_s += o.setup_s;
    corrected_abs_ms.insert(corrected_abs_ms.end(), o.corrected_abs_ms.begin(),
                            o.corrected_abs_ms.end());
  }
  const double client_hours = static_cast<double>(seeds) * kTestbedHours;
  r.work = client_hours;
  r.requests_per_client_h =
      requests == nullptr ? 0.0 : requests->summary.mean / kTestbedHours;
  r.output_ms = core::percentile(corrected_abs_ms, 99.0);
  r.counters = counter_totals(telemetry.metrics());
  return r;
}

BatchResult testbed_h2h(const WorkloadOptions& options, Ledger& ledger) {
  return run_testbed(options, ledger, 64, false);
}

BatchResult testbed_observed(const WorkloadOptions& options, Ledger& ledger) {
  return run_testbed(options, ledger, 16, true);
}

// --- tuner_sweep ------------------------------------------------------------

protocol::MntpParams table2_config(double warmup_min, double wwait_min,
                                   double rwait_min, double reset_min) {
  protocol::MntpParams p;
  p.warmup_period = core::Duration::from_seconds(warmup_min * 60);
  p.warmup_wait_time = core::Duration::from_seconds(wwait_min * 60);
  p.regular_wait_time = core::Duration::from_seconds(rwait_min * 60);
  p.reset_period = core::Duration::from_seconds(reset_min * 60);
  return p;
}

std::vector<core::Duration> minutes(std::initializer_list<double> values) {
  std::vector<core::Duration> out;
  for (double m : values) out.push_back(core::Duration::from_seconds(m * 60));
  return out;
}

/// 10 x 5 x 10 x 6 = 3,000 configurations around the paper's Table 2,
/// sized for 4-h traces.
protocol::tuner::SearchSpace dense_grid() {
  protocol::tuner::SearchSpace space;
  space.warmup_periods = minutes({10, 20, 30, 40, 50, 60, 90, 120, 180, 240});
  space.warmup_wait_times = minutes({5.0 / 60, 10.0 / 60, 15.0 / 60, 0.5, 1});
  space.regular_wait_times = minutes({1, 2, 5, 10, 15, 20, 30, 45, 60, 90});
  space.reset_periods = minutes({30, 60, 90, 120, 180, 240});
  return space;
}

/// Six 4-h traces (the paper's Table 2 capture length) from six seeds:
/// 24 captured hours, like one 24-h trace, but one channel realisation
/// no longer sets the sweep's cost and results.
constexpr std::size_t kTraces = 6;
constexpr double kTraceHours = 4.0;

/// The Logger's capture on the NTP-corrected wireless testbed.
protocol::Trace capture_trace(std::uint64_t seed, Ledger& ledger) {
  ntp::TestbedConfig config;
  config.seed = seed;
  config.wireless = true;
  config.ntp_correction = true;
  std::unique_ptr<ntp::Testbed> bed;
  std::unique_ptr<protocol::tuner::Logger> logger;
  {
    Ledger::Scope span(ledger, "ntp.testbed_build");
    bed = std::make_unique<ntp::Testbed>(config);
    logger = std::make_unique<protocol::tuner::Logger>(
        bed->sim(), bed->target_clock(), bed->pool(), bed->channel(),
        protocol::tuner::LoggerParams{}, bed->fork_rng());
    bed->start();
  }
  Ledger::Scope span(ledger, "mntp.capture");
  logger->start();
  {
    Ledger::Scope run(ledger, "sim.run_until");
    bed->sim().run_until(core::TimePoint::epoch() +
                         core::Duration::from_seconds(kTraceHours * 3600));
  }
  logger->stop();
  return logger->trace();
}

BatchResult tuner_sweep(const WorkloadOptions& options, Ledger& ledger) {
  obs::Telemetry telemetry;
  obs::ScopedTelemetry scope(telemetry);
  BatchResult r;

  // Set-up: the captures, one per worker task, are the input the sweep
  // consumes.
  const double setup_cpu = cpu_seconds();
  std::vector<protocol::Trace> traces(kTraces);
  std::vector<std::unique_ptr<Ledger>> capture_ledgers;
  for (std::size_t k = 0; k < kTraces; ++k) {
    capture_ledgers.push_back(std::make_unique<Ledger>(ledger.enabled()));
  }
  const std::int64_t t0 = ledger.now_ns();
  core::ThreadPool(options.threads).parallel_for(0, kTraces, [&](std::size_t k) {
    Ledger::Scope root(*capture_ledgers[k], "bench.batch");
    traces[k] = capture_trace(sim::replicate_seed(options.seed, k), *capture_ledgers[k]);
  });
  ledger.absorb(std::move(capture_ledgers), ledger.now_ns() - t0);
  r.setup_s = cpu_seconds() - setup_cpu;

  // The paper's six Table 2 configurations on every trace.
  std::vector<std::vector<double>> table2_requests;  // [config][trace]
  {
    Ledger::Scope span(ledger, "mntp.emulate");
    const double rows[6][4] = {{30, 0.25, 15, 240}, {40, 0.25, 15, 240},
                               {50, 0.25, 15, 240}, {70, 0.25, 30, 240},
                               {90, 0.084, 15, 240}, {240, 0.084, 15, 240}};
    for (const auto& row : rows) {
      const protocol::MntpParams params =
          table2_config(row[0], row[1], row[2], row[3]);
      table2_requests.emplace_back();
      for (const protocol::Trace& trace : traces) {
        table2_requests.back().push_back(static_cast<double>(
            protocol::tuner::emulate(trace, params).requests));
      }
    }
  }

  // Every configuration scored on every trace. Per-configuration and
  // per-trace figures are medians over the traces, so one odd channel
  // realisation does not move them.
  const protocol::tuner::SearchSpace space = dense_grid();
  const std::size_t grid = space.warmup_periods.size() *
                           space.warmup_wait_times.size() *
                           space.regular_wait_times.size() *
                           space.reset_periods.size();
  std::vector<std::vector<double>> rmse_ms(grid);  // [config][trace]
  bool whole_grid = true;
  const Clock::time_point search_start = Clock::now();
  const double search_cpu = cpu_seconds();
  for (const protocol::Trace& trace : traces) {
    std::vector<protocol::tuner::SearchEntry> entries;
    {
      Ledger::Scope span(ledger, "mntp.search");
      entries = protocol::tuner::search(trace, space, {.threads = options.threads});
    }
    whole_grid &= entries.size() == grid;
    for (std::size_t i = 0; i < std::min(grid, entries.size()); ++i) {
      rmse_ms[i].push_back(entries[i].rmse_ms);
    }
  }
  const double search_s = seconds_since(search_start);
  const double search_cpu_s = cpu_seconds() - search_cpu;

  bool requests_increase = true;
  for (std::size_t i = 1; i < table2_requests.size(); ++i) {
    double before = 0.0, after = 0.0;
    for (std::size_t k = 0; k < kTraces; ++k) {
      before += table2_requests[i - 1][k];
      after += table2_requests[i][k];
    }
    requests_increase &= after > before;
  }
  std::vector<double> config_rmse_ms;
  for (const std::vector<double>& per_trace : rmse_ms) {
    config_rmse_ms.push_back(median(per_trace));
  }
  const double best_rmse_ms =
      *std::min_element(config_rmse_ms.begin(), config_rmse_ms.end());
  r.checks.push_back({"searcher enumerated the whole grid on every trace",
                      whole_grid});
  r.checks.push_back({"requests increase across the six Table 2 configurations",
                      requests_increase});
  r.checks.push_back({"best RMSE is a positive finite number",
                      std::isfinite(best_rmse_ms) && best_rmse_ms > 0.0});
  add_injected_failure(options, r);

  // Requests per trace hour of the six Table 2 configurations together.
  std::vector<double> table2_per_h;
  for (std::size_t k = 0; k < kTraces; ++k) {
    double n = 0.0;
    for (const std::vector<double>& per_trace : table2_requests) n += per_trace[k];
    table2_per_h.push_back(n / (static_cast<double>(table2_requests.size()) *
                                kTraceHours));
  }
  r.work = static_cast<double>(grid);
  r.work_s = search_s;
  r.work_cpu_s = search_cpu_s;
  // The grid's median RMSE: the lowest one rides on one configuration and
  // moves too much between seed sets to gate on; it is printed beside.
  r.output_ms = median(config_rmse_ms);
  r.requests_per_client_h = median(table2_per_h);
  r.figures["tuner_best_rmse_ms"] = best_rmse_ms;
  r.layer_values["mntp.emulate_us_per_config"] =
      search_s * 1e6 / static_cast<double>(grid);
  r.counters = counter_totals(telemetry.metrics());
  return r;
}

// --- fleet_e2e --------------------------------------------------------------

BatchResult fleet_e2e(const WorkloadOptions& options, Ledger& ledger) {
  obs::Telemetry telemetry;
  obs::ScopedTelemetry scope(telemetry);
  BatchResult r;

  fleet::FleetParams params;
  params.clients = 2'000'000;
  params.duration_s = 600.0;
  params.seed = options.seed;

  const double build_cpu = cpu_seconds();
  std::shared_ptr<const fleet::ClientFleet> population;
  {
    Ledger::Scope span(ledger, "fleet.build");
    population = std::make_shared<const fleet::ClientFleet>(
        fleet::ClientFleet::build(params));
  }
  r.setup_s = cpu_seconds() - build_cpu;

  const Clock::time_point run_start = Clock::now();
  const double run_cpu = cpu_seconds();
  fleet::FleetResult result;
  {
    Ledger::Scope span(ledger, "fleet.run");
    fleet::Simulator simulator(population, params);
    result = simulator.run(options.threads);
  }
  const double run_s = seconds_since(run_start);
  const double run_cpu_s = cpu_seconds() - run_cpu;

  std::string report;
  {
    Ledger::Scope span(ledger, "fleet.report");
    report = fleet::render_fleet_report(params, result);
  }

  // The fleet_qps conservation ledger.
  std::uint64_t server_sum = 0;
  for (const std::uint64_t n : result.server_requests) server_sum += n;
  r.checks.push_back({"queries == arrived + dropped",
                      result.queries == result.arrived + result.dropped});
  r.checks.push_back({"sum(server requests) == arrived",
                      server_sum == result.arrived});
  r.checks.push_back({"cache hits + misses == arrived - kod",
                      result.cache_hits + result.cache_misses ==
                          result.arrived - result.kod});
  r.checks.push_back({"owd valid + invalid == arrived - kod",
                      result.owd.valid + result.owd.invalid ==
                          result.arrived - result.kod});
  r.checks.push_back({"report rendered", !report.empty()});
  add_injected_failure(options, r);

  obs::HdrHistogram owd = result.owd.by_category[0];
  for (std::size_t c = 1; c < result.owd.by_category.size(); ++c) {
    owd.merge(result.owd.by_category[c]);
  }
  const double client_hours =
      static_cast<double>(params.clients) * params.duration_s / 3600.0;
  r.work = static_cast<double>(result.queries);
  r.work_s = run_s;
  r.work_cpu_s = run_cpu_s;
  r.requests_per_client_h = static_cast<double>(result.queries) / client_hours;
  r.output_ms = owd.mean();
  r.clients = params.clients;
  r.counters = counter_totals(telemetry.metrics());
  // The busiest server's share of arrivals, from the registry's
  // per-server fleet.server.requests{server=...} series.
  const std::string per_server =
      std::string(obs::metric_names::kFleetServerRequests) + "{";
  double max_server = 0.0;
  for (const auto& [key, value] : r.counters) {
    if (key.starts_with(per_server)) max_server = std::max(max_server, value);
  }
  const double arrived = r.counters[obs::metric_names::kFleetServerRequests];
  r.layer_values["fleet.max_server_share"] =
      arrived > 0.0 ? max_server / arrived : 0.0;
  return r;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"testbed_h2h", "sim_hours_per_s", "mntp_requests_per_h",
       "mntp_resid_p99_ms", &testbed_h2h},
      {"testbed_observed", "sim_hours_per_s", "mntp_requests_per_h",
       "mntp_resid_p99_ms", &testbed_observed},
      {"tuner_sweep", "configs_per_s", "table2_requests_per_h",
       "tuner_grid_median_rmse_ms", &tuner_sweep},
      {"fleet_e2e", "queries_per_s", "fleet_queries_per_client_h",
       "fleet_owd_mean_ms", &fleet_e2e},
  };
  return specs;
}

}  // namespace mntp::e2e
