#include "common.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "core/format.h"
#include "core/thread_pool.h"

namespace mntp::bench {

namespace {

double minutes_at(core::TimePoint t) { return t.to_seconds() / 60.0; }

/// Append each of `client`'s samples to `run->series` (minutes, ms).
void record_series(ntp::SntpClient& client, SntpRun* run) {
  client.set_on_sample([run](const ntp::SntpSample& s) {
    run->series.emplace_back(minutes_at(s.completed_at), s.offset.to_millis());
  });
}

/// Copy a finished SNTP client's results into `run`.
void collect(const ntp::SntpClient& client, ntp::Testbed& bed, SntpRun* run) {
  run->offsets_ms = client.offsets_ms();
  run->polls = client.polls();
  run->failures = client.failures();
  run->final_clock_offset_ms = bed.true_clock_offset_ms();
}

/// Copy a finished MNTP client's results into `run`.
void collect(const protocol::MntpClient& client, ntp::Testbed& bed,
             MntpRun* run) {
  const protocol::MntpEngine& engine = client.engine();
  split_engine_records(engine, &run->accepted, &run->rejected,
                       &run->corrected);
  run->accepted_ms = engine.accepted_offsets_ms();
  run->rejected_ms = engine.rejected_offsets_ms();
  run->corrected_ms = engine.corrected_offsets_ms();
  run->deferrals = engine.deferrals();
  run->requests = client.requests_sent();
  if (const auto d = engine.drift_s_per_s()) {
    run->drift_ppm = *d * 1e6;
    run->has_drift = true;
  }
  run->final_clock_offset_ms = bed.true_clock_offset_ms();
  run->hints = client.hint_log();
}

}  // namespace

void split_engine_records(const protocol::MntpEngine& engine, Series* accepted,
                          Series* rejected, Series* corrected) {
  for (const auto& r : engine.records()) {
    const double t_min = minutes_at(r.t);
    if (r.reported()) {
      if (accepted) accepted->emplace_back(t_min, r.offset_s * 1e3);
      if (corrected && !r.bootstrap) {
        corrected->emplace_back(t_min, r.corrected_s * 1e3);
      }
    } else if (rejected) {
      rejected->emplace_back(t_min, r.offset_s * 1e3);
    }
  }
}

SntpRun run_sntp_experiment(const ntp::TestbedConfig& config,
                            core::Duration span, core::Duration poll) {
  ntp::Testbed bed(config);
  ntp::SntpClient client(bed.sim(), bed.target_clock(), bed.pool(),
                         bed.last_hop_up(), bed.last_hop_down(),
                         {.poll_interval = poll});
  SntpRun run;
  record_series(client, &run);
  bed.start();
  client.start();
  bed.sim().run_until(core::TimePoint::epoch() + span);
  collect(client, bed, &run);
  return run;
}

MntpRun run_mntp_experiment(const ntp::TestbedConfig& config,
                            const protocol::MntpParams& params,
                            core::Duration span) {
  ntp::Testbed bed(config);
  protocol::MntpClient client(bed.sim(), bed.target_clock(), bed.pool(),
                              bed.channel(), params, bed.fork_rng());
  bed.start();
  client.start();
  bed.sim().run_until(core::TimePoint::epoch() + span);
  MntpRun run;
  collect(client, bed, &run);
  return run;
}

HeadToHead run_head_to_head(const ntp::TestbedConfig& config,
                            const protocol::MntpParams& params,
                            core::Duration span, core::Duration sntp_poll) {
  ntp::Testbed bed(config);
  ntp::SntpClient sntp(bed.sim(), bed.target_clock(), bed.pool(),
                       bed.last_hop_up(), bed.last_hop_down(),
                       {.poll_interval = sntp_poll});
  protocol::MntpClient mntp_client(bed.sim(), bed.target_clock(), bed.pool(),
                                   bed.channel(), params, bed.fork_rng());
  HeadToHead result;
  record_series(sntp, &result.sntp);
  bed.start();
  sntp.start();
  mntp_client.start();
  bed.sim().run_until(core::TimePoint::epoch() + span);
  collect(sntp, bed, &result.sntp);
  collect(mntp_client, bed, &result.mntp);
  return result;
}

void print_offset_summary(const std::string& label,
                          const std::vector<double>& offsets_ms) {
  const core::Summary s = core::summarize(offsets_ms);
  std::printf(
      "  %-34s n=%-5zu mean %+8.2f ms  sd %8.2f  med %+7.2f  max|.| %8.2f\n",
      label.c_str(), s.count, s.mean, s.stddev, s.median,
      core::max_abs(offsets_ms));
}

void plot_offsets(const std::string& title,
                  const std::vector<core::Series>& series) {
  std::printf("%s\n", core::ascii_plot(series, 78, 18, title).c_str());
}

void Checks::expect(bool condition, const std::string& description) {
  entries_.push_back({condition, description});
}

void Checks::expect_near(double value, double target, double tolerance,
                         const std::string& description) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s (measured %.2f, paper ~%.2f, tol %.2f)",
                description.c_str(), value, target, tolerance);
  entries_.push_back({std::fabs(value - target) <= tolerance, buf});
}

namespace {

[[noreturn]] void reject_flag(const char* flag, const std::string& value,
                              const char* expected) {
  std::fprintf(stderr, "error: %s expects %s, got '%s'\n", flag, expected,
               value.c_str());
  std::exit(2);
}

/// Every flag a parse_* helper has looked up, for reject_unknown_flags.
struct KnownFlag {
  std::string name;
  bool takes_value;
};

std::vector<KnownFlag>& known_flags() {
  static std::vector<KnownFlag> flags;
  return flags;
}

void note_flag(const char* flag, bool takes_value) {
  std::vector<KnownFlag>& flags = known_flags();
  for (const KnownFlag& f : flags) {
    if (f.name == flag) return;
  }
  flags.push_back({flag, takes_value});
}

}  // namespace

void reject_unknown_flags(int argc, char** argv) {
  const std::vector<KnownFlag>& flags = known_flags();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::string_view name = arg.substr(0, arg.find('='));
    const auto it = std::find_if(
        flags.begin(), flags.end(),
        [&](const KnownFlag& f) { return f.name == name; });
    if (it == flags.end()) {
      std::string known;
      for (const KnownFlag& f : flags) known += " " + f.name;
      std::fprintf(stderr, "error: unknown %s '%s' (known flags:%s)\n",
                   arg.starts_with("-") ? "flag" : "argument", argv[i],
                   known.empty() ? " none" : known.c_str());
      std::exit(2);
    }
    // `--flag value`: the next argument is the value, not a flag.
    if (it->takes_value && name.size() == arg.size()) ++i;
  }
}

std::string parse_flag(int argc, char** argv, const char* flag) {
  note_flag(flag, /*takes_value=*/true);
  const std::size_t flag_len = std::strlen(flag);
  bool present = false;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, flag) == 0) {
      present = true;
      value = i + 1 < argc ? argv[i + 1] : "";
    } else if (std::strncmp(arg, flag, flag_len) == 0 &&
               arg[flag_len] == '=') {
      present = true;
      value = arg + flag_len + 1;
    }
  }
  // A flag followed by nothing, by `=` alone or by another flag has no
  // value; running on the default instead would hide the typo.
  if (present && (value.empty() || value.starts_with("--"))) {
    reject_flag(flag, value, "a value");
  }
  return value;
}

std::size_t parse_size_flag(int argc, char** argv, const char* flag,
                            std::size_t def) {
  const std::string value = parse_flag(argc, argv, flag);
  if (value.empty()) return def;
  char* end = nullptr;
  errno = 0;
  const unsigned long n = std::strtoul(value.c_str(), &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end != '\0' ||
      errno == ERANGE) {
    reject_flag(flag, value, "a non-negative integer below 2^64");
  }
  return static_cast<std::size_t>(n);
}

double parse_double_flag(int argc, char** argv, const char* flag,
                         double def) {
  const std::string value = parse_flag(argc, argv, flag);
  if (value.empty()) return def;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    reject_flag(flag, value, "a number");
  }
  return parsed;
}

bool parse_bool_flag(int argc, char** argv, const char* flag) {
  note_flag(flag, /*takes_value=*/false);
  const std::size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, flag) == 0) return true;
    if (std::strncmp(arg, flag, flag_len) == 0 && arg[flag_len] == '=') {
      return true;
    }
  }
  return false;
}

namespace {

/// parse_size_flag for counts that must be at least 1: 0 exits 2.
std::size_t parse_positive_flag(int argc, char** argv, const char* flag,
                                std::size_t def) {
  const std::size_t n = parse_size_flag(argc, argv, flag, def);
  if (n == 0) reject_flag(flag, "0", "a positive integer");
  return n;
}

}  // namespace

ReplicateCli parse_replicate_cli(int argc, char** argv) {
  ReplicateCli cli;
  cli.replicates = parse_positive_flag(argc, argv, "--replicates", 1);
  cli.threads = parse_threads(argc, argv, 1);
  return cli;
}

void print_replicate_report(const sim::ReplicateReport& report) {
  if (report.replicates <= 1) return;
  std::printf("\n== replication: %zu seeds from base %llu ==\n",
              report.replicates,
              static_cast<unsigned long long>(report.base_seed));
  core::TextTable table(
      {"metric", "median", "mean", "sd", "min", "max"});
  for (const sim::ReplicatedMetric& m : report.metrics) {
    table.add_row({m.name, core::strformat("%.3f", m.summary.median),
                   core::strformat("%.3f", m.summary.mean),
                   core::strformat("%.3f", m.summary.stddev),
                   core::strformat("%.3f", m.summary.min),
                   core::strformat("%.3f", m.summary.max)});
  }
  std::printf("%s", table.render().c_str());

  if (report.distributions.empty()) return;
  std::printf("\n== merged distributions (exact counts across %zu seeds) ==\n",
              report.replicates);
  core::TextTable distributions({"distribution", "count", "p50", "p90", "p99",
                                 "min", "max"});
  for (const sim::MergedDistribution& d : report.distributions) {
    distributions.add_row(
        {d.name,
         core::strformat("%llu",
                         static_cast<unsigned long long>(d.merged.count())),
         core::strformat("%.3f", d.merged.quantile(0.50)),
         core::strformat("%.3f", d.merged.quantile(0.90)),
         core::strformat("%.3f", d.merged.quantile(0.99)),
         core::strformat("%.3f", d.merged.min()),
         core::strformat("%.3f", d.merged.max())});
  }
  std::printf("%s", distributions.render().c_str());
}

std::size_t parse_threads(int argc, char** argv, std::size_t def) {
  if (parse_flag(argc, argv, "--threads").empty()) return def;
  const std::size_t n = parse_size_flag(argc, argv, "--threads", def);
  return n == 0 ? core::ThreadPool::default_workers() : n;
}

BenchTelemetry::BenchTelemetry(std::string run_name, int argc, char** argv)
    : run_name_(std::move(run_name)),
      out_path_(parse_flag(argc, argv, "--telemetry-out")),
      profile_path_(parse_flag(argc, argv, "--profile-out")),
      query_trace_path_(parse_flag(argc, argv, "--query-trace-out")),
      timeline_path_(parse_flag(argc, argv, "--timeline-out")),
      scope_(telemetry_) {
  // Every flag is parsed whether or not the flag it refines is present,
  // so reject_unknown_flags knows it and a malformed value always exits 2.
  obs::QueryTracer::Sampling sampling;
  sampling.sample_one_in_n =
      parse_positive_flag(argc, argv, "--query-trace-sample", 1);
  sampling.seed = parse_size_flag(argc, argv, "--query-trace-seed", 0);
  const std::size_t cadence_ms =
      parse_positive_flag(argc, argv, "--timeline-cadence-ms", 1000);

  if (profiling()) telemetry_.profiler().set_enabled(true);
  if (query_tracing()) {
    obs::QueryTracer& qt = telemetry_.query_tracer();
    qt.set_enabled(true);
    if (sampling.sample_one_in_n > 1) qt.set_sampling(sampling);
  }
  if (timeline_enabled()) {
    telemetry_.timeseries().set_cadence(core::Duration::milliseconds(
        static_cast<std::int64_t>(cadence_ms)));
    telemetry_.timeseries().set_enabled(true);
  }
}

bool BenchTelemetry::write_report(core::TimePoint sim_end) {
  if (!enabled()) return true;
  const core::Status status = obs::write_run_report_file(
      out_path_, telemetry_,
      obs::ReportOptions{.run_name = run_name_, .sim_end = sim_end});
  if (!status.ok()) {
    std::fprintf(stderr, "telemetry report failed: %s\n",
                 status.error().message.c_str());
    return false;
  }
  std::printf("\ntelemetry report: %s (%zu metrics)\n", out_path_.c_str(),
              telemetry_.metrics().snapshot().size());
  return true;
}

bool BenchTelemetry::write_profile() {
  if (!profiling()) return true;
  const core::Status status = obs::write_chrome_trace_file(
      profile_path_, telemetry_.profiler(), run_name_);
  if (!status.ok()) {
    std::fprintf(stderr, "profile trace failed: %s\n",
                 status.error().message.c_str());
    return false;
  }
  std::printf("profile trace: %s (%llu spans)\n", profile_path_.c_str(),
              static_cast<unsigned long long>(
                  telemetry_.profiler().total_spans()));
  return true;
}

bool BenchTelemetry::write_query_trace(core::TimePoint sim_end) {
  if (!query_tracing()) return true;
  const obs::QueryTracer& qt = telemetry_.query_tracer();
  if (!qt.write_jsonl_file(query_trace_path_, run_name_, sim_end)) {
    std::fprintf(stderr, "query trace failed: %s\n",
                 query_trace_path_.c_str());
    return false;
  }
  std::printf("query trace: %s (%llu queries, %llu dropped)\n",
              query_trace_path_.c_str(),
              static_cast<unsigned long long>(qt.minted()),
              static_cast<unsigned long long>(qt.dropped()));
  return true;
}

bool BenchTelemetry::write_timeline(core::TimePoint sim_end) {
  if (!timeline_enabled()) return true;
  const obs::TimeSeriesRecorder& ts = telemetry_.timeseries();
  const core::Status status =
      obs::write_timeline_file(timeline_path_, ts, run_name_, sim_end);
  if (!status.ok()) {
    std::fprintf(stderr, "timeline failed: %s\n",
                 status.error().message.c_str());
    return false;
  }
  std::printf("timeline: %s (%zu series, %llu samples)\n",
              timeline_path_.c_str(), ts.series_count(),
              static_cast<unsigned long long>(ts.samples_taken()));
  return true;
}

bool BenchTelemetry::finalize(core::TimePoint sim_end) {
  bool ok = true;
  // Export span aggregates BEFORE the run report so profile.span.*
  // gauges are serialized alongside the run's other metrics.
  if (profiling()) {
    telemetry_.profiler().export_to_metrics(telemetry_.metrics());
  }
  // Export trace-sampling reconciliation counters whenever traces can
  // have been sampled away — mntp-inspect needs them to tell "sampled
  // out on purpose" from "lost". Off the sampling path the metric set
  // (and so the report artifact) stays byte-identical to earlier
  // releases.
  if (query_tracing() &&
      telemetry_.query_tracer().sampling().sample_one_in_n > 1) {
    telemetry_.query_tracer().export_counters(telemetry_.metrics());
  }
  ok = write_report(sim_end) && ok;
  ok = write_profile() && ok;
  ok = write_query_trace(sim_end) && ok;
  ok = write_timeline(sim_end) && ok;
  return ok;
}

int Checks::finish(const std::string& experiment_name) const {
  int failures = 0;
  std::printf("\n-- shape checks: %s --\n", experiment_name.c_str());
  for (const auto& e : entries_) {
    std::printf("  [%s] %s\n", e.pass ? "PASS" : "FAIL", e.text.c_str());
    if (!e.pass) ++failures;
  }
  std::printf("  %zu checks, %d failed\n", entries_.size(), failures);
  return failures > 0 ? 1 : 0;
}

}  // namespace mntp::bench
