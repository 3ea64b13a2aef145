#include "common.h"

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

#include "core/format.h"
#include "core/thread_pool.h"
#include "obs/metric_names.h"

namespace mntp::bench {

namespace {

double minutes_at(core::TimePoint t) { return t.to_seconds() / 60.0; }

}  // namespace

SntpRun run_sntp_experiment(const ntp::TestbedConfig& config,
                            core::Duration span, core::Duration poll) {
  ntp::Testbed bed(config);
  ntp::SntpClientPolicy policy;
  policy.poll_interval = poll;
  ntp::SntpClient client(bed.sim(), bed.target_clock(), bed.pool(),
                         bed.last_hop_up(), bed.last_hop_down(), policy);
  SntpRun run;
  client.set_on_sample([&](const ntp::SntpSample& s) {
    run.series.emplace_back(minutes_at(s.completed_at), s.offset.to_millis());
  });
  bed.start();
  client.start();
  bed.sim().run_until(core::TimePoint::epoch() + span);
  run.offsets_ms = client.offsets_ms();
  run.polls = client.polls();
  run.failures = client.failures();
  run.final_clock_offset_ms = bed.true_clock_offset_ms();
  return run;
}

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
  split_engine_records(client.engine(), &run.accepted, &run.rejected,
                       &run.corrected);
  run.accepted_ms = client.engine().accepted_offsets_ms();
  run.rejected_ms = client.engine().rejected_offsets_ms();
  run.corrected_ms = client.engine().corrected_offsets_ms();
  run.deferrals = client.engine().deferrals();
  run.requests = client.requests_sent();
  if (const auto d = client.engine().drift_s_per_s()) {
    run.drift_ppm = *d * 1e6;
    run.has_drift = true;
  }
  run.final_clock_offset_ms = bed.true_clock_offset_ms();
  run.hints = client.hint_log();
  return run;
}

HeadToHead run_head_to_head(const ntp::TestbedConfig& config,
                            const protocol::MntpParams& params,
                            core::Duration span, core::Duration sntp_poll) {
  ntp::Testbed bed(config);
  ntp::SntpClientPolicy policy;
  policy.poll_interval = sntp_poll;
  ntp::SntpClient sntp(bed.sim(), bed.target_clock(), bed.pool(),
                       bed.last_hop_up(), bed.last_hop_down(), policy);
  protocol::MntpClient mntp_client(bed.sim(), bed.target_clock(), bed.pool(),
                                   bed.channel(), params, bed.fork_rng());

  HeadToHead result;
  sntp.set_on_sample([&](const ntp::SntpSample& s) {
    result.sntp.series.emplace_back(minutes_at(s.completed_at),
                                    s.offset.to_millis());
  });
  bed.start();
  sntp.start();
  mntp_client.start();
  bed.sim().run_until(core::TimePoint::epoch() + span);

  result.sntp.offsets_ms = sntp.offsets_ms();
  result.sntp.polls = sntp.polls();
  result.sntp.failures = sntp.failures();
  result.sntp.final_clock_offset_ms = bed.true_clock_offset_ms();

  split_engine_records(mntp_client.engine(), &result.mntp.accepted,
                       &result.mntp.rejected, &result.mntp.corrected);
  result.mntp.accepted_ms = mntp_client.engine().accepted_offsets_ms();
  result.mntp.rejected_ms = mntp_client.engine().rejected_offsets_ms();
  result.mntp.corrected_ms = mntp_client.engine().corrected_offsets_ms();
  result.mntp.deferrals = mntp_client.engine().deferrals();
  result.mntp.requests = mntp_client.requests_sent();
  if (const auto d = mntp_client.engine().drift_s_per_s()) {
    result.mntp.drift_ppm = *d * 1e6;
    result.mntp.has_drift = true;
  }
  result.mntp.final_clock_offset_ms = bed.true_clock_offset_ms();
  result.mntp.hints = mntp_client.hint_log();
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
  const unsigned long n = std::strtoul(value.c_str(), &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end != '\0') {
    reject_flag(flag, value, "a non-negative integer");
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

ReplicateCli parse_replicate_cli(int argc, char** argv) {
  ReplicateCli cli;
  cli.replicates =
      std::max<std::size_t>(1, parse_size_flag(argc, argv, "--replicates", 1));
  cli.threads = parse_threads(argc, argv, 1);
  return cli;
}

void print_replicate_report(const sim::ReplicateReport& report) {
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
}

void print_replicate_distributions(const sim::ReplicateReport& report) {
  if (report.distributions.empty()) return;
  std::printf("\n== merged distributions (exact counts across %zu seeds) ==\n",
              report.replicates);
  core::TextTable table({"distribution", "count", "p50", "p90", "p99", "min",
                         "max"});
  for (const sim::MergedDistribution& d : report.distributions) {
    table.add_row({d.name,
                   core::strformat("%llu", static_cast<unsigned long long>(
                                               d.merged.count())),
                   core::strformat("%.3f", d.merged.quantile(0.50)),
                   core::strformat("%.3f", d.merged.quantile(0.90)),
                   core::strformat("%.3f", d.merged.quantile(0.99)),
                   core::strformat("%.3f", d.merged.min()),
                   core::strformat("%.3f", d.merged.max())});
  }
  std::printf("%s", table.render().c_str());
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
      obs_self_(parse_bool_flag(argc, argv, "--obs-self")),
      scope_(telemetry_) {
  // Every flag is parsed whether or not the flag it refines is present,
  // so reject_unknown_flags knows it and a malformed value always exits 2.
  obs::QueryTracer::Sampling sampling;
  sampling.sample_one_in_n = std::max<std::size_t>(
      1, parse_size_flag(argc, argv, "--query-trace-sample", 1));
  sampling.seed = parse_size_flag(argc, argv, "--query-trace-seed", 0);
  sampling.reservoir =
      parse_size_flag(argc, argv, "--query-trace-reservoir", 0);
  const bool query_stream =
      parse_bool_flag(argc, argv, "--query-trace-stream");
  const std::size_t cadence_ms =
      parse_size_flag(argc, argv, "--timeline-cadence-ms", 1000);

  if (profiling()) telemetry_.profiler().set_enabled(true);
  if (query_tracing()) {
    obs::QueryTracer& qt = telemetry_.query_tracer();
    qt.set_enabled(true);
    if (sampling.sample_one_in_n > 1 || sampling.reservoir > 0) {
      qt.set_sampling(sampling);
    }
    if (query_stream) {
      if (query_stream_.open(query_trace_path_)) {
        qt.set_stream(&query_stream_);
        query_streaming_ = true;
      } else {
        std::fprintf(stderr,
                     "query trace stream failed to open %s; "
                     "falling back to batch export\n",
                     query_trace_path_.c_str());
      }
    }
  }
  if (timeline_enabled()) {
    telemetry_.timeseries().set_cadence(
        core::Duration::milliseconds(std::max<std::size_t>(1, cadence_ms)));
    telemetry_.timeseries().set_enabled(true);
  }
}

void BenchTelemetry::account_artifact(const std::string& path) {
  if (!obs_self_) return;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec) artifact_bytes_ += size;
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
  account_artifact(profile_path_);
  return true;
}

bool BenchTelemetry::write_query_trace(core::TimePoint sim_end) {
  if (!query_tracing()) return true;
  obs::QueryTracer& qt = telemetry_.query_tracer();
  if (query_streaming_) {
    if (!qt.finish_stream(run_name_, sim_end)) {
      std::fprintf(stderr, "query trace stream failed: %s\n",
                   query_trace_path_.c_str());
      return false;
    }
  } else if (!qt.write_jsonl_file(query_trace_path_, run_name_, sim_end)) {
    std::fprintf(stderr, "query trace failed: %s\n",
                 query_trace_path_.c_str());
    return false;
  }
  std::printf("query trace: %s (%llu queries, %llu dropped)\n",
              query_trace_path_.c_str(),
              static_cast<unsigned long long>(qt.minted()),
              static_cast<unsigned long long>(qt.dropped()));
  account_artifact(query_trace_path_);
  return true;
}

bool BenchTelemetry::write_timeline(core::TimePoint sim_end) {
  if (!timeline_enabled()) return true;
  const obs::TimeSeriesRecorder& ts = telemetry_.timeseries();
  // The chunked writer produces byte-identical output to
  // write_timeline_file (shared line serializers) while flushing in
  // bounded chunks and metering bytes/flushes for obs.self.*.
  std::uint64_t bytes = 0;
  const core::Status status = obs::write_timeline_chunked(
      timeline_path_, ts, run_name_, sim_end, &bytes, &timeline_flushes_);
  if (!status.ok()) {
    std::fprintf(stderr, "timeline failed: %s\n",
                 status.error().message.c_str());
    return false;
  }
  std::printf("timeline: %s (%zu series, %llu samples)\n",
              timeline_path_.c_str(), ts.series_count(),
              static_cast<unsigned long long>(ts.samples_taken()));
  if (obs_self_) artifact_bytes_ += bytes;
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
  const obs::QueryTracer::Sampling sampling =
      telemetry_.query_tracer().sampling();
  const bool sampling_on =
      sampling.sample_one_in_n > 1 || sampling.reservoir > 0;
  if (!obs_self_ && query_tracing() && (sampling_on || query_streaming_)) {
    telemetry_.query_tracer().export_counters(telemetry_.metrics());
  }
  if (!obs_self_) {
    // Historical order, byte-identical stdout.
    ok = write_report(sim_end) && ok;
    ok = write_profile() && ok;
    ok = write_query_trace(sim_end) && ok;
    ok = write_timeline(sim_end) && ok;
    return ok;
  }
  // Self-metering: write every other artifact first so its cost is
  // known, fold the obs.self.* family into the registry, and write the
  // report LAST so it carries the measurements. (The report cannot
  // account its own bytes; obs.self.bytes_written covers the profile,
  // query-trace and timeline artifacts.)
  ok = write_profile() && ok;
  ok = write_query_trace(sim_end) && ok;
  ok = write_timeline(sim_end) && ok;
  obs::MetricsRegistry& metrics = telemetry_.metrics();
  const auto merge_start = std::chrono::steady_clock::now();
  const std::size_t merged_series = metrics.snapshot().size();
  const double merge_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - merge_start)
          .count();
  if (query_tracing()) {
    telemetry_.query_tracer().export_counters(metrics);
  }
  metrics.counter(obs::metric_names::kObsSelfBytesWritten)
      ->inc(artifact_bytes_);
  metrics.counter(obs::metric_names::kObsSelfStreamFlushes)
      ->inc(query_stream_.flushes() + timeline_flushes_);
  metrics.gauge(obs::metric_names::kObsSelfMergeWallUs)->set(merge_us);
  std::printf(
      "telemetry self: %llu artifact bytes, %llu stream flushes, "
      "merge %zu series in %.1f us\n",
      static_cast<unsigned long long>(artifact_bytes_),
      static_cast<unsigned long long>(query_stream_.flushes() +
                                      timeline_flushes_),
      merged_series, merge_us);
  ok = write_report(sim_end) && ok;
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
  return failures;
}

}  // namespace mntp::bench
