// End-to-end benchmark: one workload per process.
//
//   mntp_e2e --workload NAME --seed N --seconds S --trace 0|1
//            [--out-dir DIR] [--inject-check-failure]
//
// Repeats the workload's batch until S seconds have passed (at least
// once). With --trace 0 it prints the end-to-end metrics, as medians over
// the batches. Their times are CPU seconds of the process scaled to a
// nominal host by the speed reference run between batches (reference.h):
// on a shared host wall seconds, and raw CPU seconds, drift with other
// tenants' load. Wall figures are printed beside them. With --trace 1
// batches alternate untraced and traced; it prints the per-layer metrics
// of the median traced batch, whose layer self times plus unattributed_s
// add up to that batch's wall time, and writes the batch's spans to DIR. The last stdout line is one JSON
// object {"correct","attempted","failed","metrics"}. Every failed output
// check counts as a failed operation and makes the exit code 1; an
// unknown or malformed flag exits 2.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/stats.h"
#include "ledger.h"
#include "reference.h"
#include "workloads.h"

namespace {

using namespace mntp::e2e;
using Clock = std::chrono::steady_clock;

struct Cli {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".";
  bool inject_failure = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "mntp_e2e: %s\n"
               "usage: mntp_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--inject-check-failure]\n"
               "workloads:",
               message.c_str());
  for (const WorkloadSpec& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::optional<std::uint64_t> parse_uint(const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return v;
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::optional<std::string> value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    }
    if (!seen.insert(flag).second) usage_error("repeated flag " + flag);
    if (flag == "--inject-check-failure") {
      if (value) usage_error(flag + " takes no value");
      cli.inject_failure = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--out-dir") {
      usage_error("unknown flag " + flag);
    }
    if (!value) {
      if (i + 1 >= argc) usage_error(flag + " needs a value");
      value = argv[++i];
    }
    if (flag == "--workload") {
      for (const WorkloadSpec& w : workloads()) {
        if (*value == w.name) cli.workload = &w;
      }
      if (cli.workload == nullptr) usage_error("unknown workload " + *value);
    } else if (flag == "--seed") {
      const auto seed = parse_uint(*value);
      if (!seed) usage_error("--seed wants a non-negative integer");
      cli.seed = *seed;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      cli.seconds = std::strtod(value->c_str(), &end);
      if (value->empty() || *end != '\0' || !std::isfinite(cli.seconds) ||
          cli.seconds <= 0.0) {
        usage_error("--seconds wants a positive number");
      }
    } else if (flag == "--trace") {
      if (*value != "0" && *value != "1") usage_error("--trace wants 0 or 1");
      cli.trace = *value == "1";
    } else {
      if (value->empty()) usage_error("--out-dir wants a path");
      cli.out_dir = *value;
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (seen.count(required) == 0) usage_error(std::string("missing ") + required);
  }
  return cli;
}

/// Worker threads: four, or fewer when fewer CPUs are available.
std::size_t worker_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return static_cast<std::size_t>(std::clamp(cpus, 1, 4));
}

/// Forgets the process's peak resident set (Linux clear_refs), so that
/// the next peak_rss_mb() covers only what ran after the call: the
/// reference's table does not count.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak resident set since the last reset_peak_rss() (VmHWM), in MB; the
/// process's lifetime peak where /proc does not say.
double peak_rss_mb() {
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr &&
           std::sscanf(line, "VmHWM: %lf kB", &kib) != 1) {
    }
    std::fclose(f);
  }
  if (kib <= 0.0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    kib = static_cast<double>(usage.ru_maxrss);
  }
  return kib / 1024.0;
}

struct Batch {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  BatchResult result;
  std::unique_ptr<Ledger> ledger;
};

Batch run_batch(const WorkloadSpec& spec, const WorkloadOptions& options,
                bool traced) {
  Batch b;
  b.ledger = std::make_unique<Ledger>(traced);
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  {
    Ledger::Scope root(*b.ledger, "bench.batch");
    b.result = spec.run(options, *b.ledger);
  }
  b.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  b.cpu_s = cpu_seconds() - cpu0;
  return b;
}

double median_of(const std::vector<Batch>& batches, double (*get)(const Batch&)) {
  std::vector<double> xs;
  for (const Batch& b : batches) xs.push_back(get(b));
  return mntp::core::percentile(xs, 50.0);
}

double work_per_s(const Batch& b) {
  const double over = b.result.work_s > 0.0 ? b.result.work_s : b.wall_s;
  return b.result.work / over;
}

double work_per_cpu_s(const Batch& b) {
  const double over = b.result.work_cpu_s > 0.0 ? b.result.work_cpu_s : b.cpu_s;
  return b.result.work / over;
}

/// The batch whose wall time is the run's median (the lower middle one
/// for an even count).
const Batch& median_batch(const std::vector<Batch>& batches) {
  std::vector<const Batch*> order;
  for (const Batch& b : batches) order.push_back(&b);
  std::sort(order.begin(), order.end(),
            [](const Batch* a, const Batch* b) { return a->wall_s < b->wall_s; });
  return *order[(order.size() - 1) / 2];
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Span name -> per-layer time metric. Every span the workloads open is
/// listed, so the layer times and unattributed_s partition the wall time.
const std::map<std::string, std::string> kLayerTimes = {
    {"sim.run_until", "sim.run_until_s"},   {"net.sntp_hop", "net.sntp_hop_s"},
    {"ntp.testbed_build", "ntp.testbed_build_s"},
    {"mntp.capture", "mntp.capture_s"},     {"mntp.emulate", "mntp.emulate_s"},
    {"mntp.search", "mntp.search_s"},       {"fleet.build", "fleet.build_s"},
    {"fleet.run", "fleet.run_s"},           {"fleet.report", "fleet.report_s"},
    {"obs.export", "obs.export_s"},         {"bench.batch", "unattributed_s"},
};

/// The per-layer metrics of one traced batch, grouped by layer.
std::vector<Metric> per_layer_metrics(const Batch& b, double overhead_s) {
  std::map<std::string, double> t;  // layer time metric -> self seconds
  for (const auto& [span, seconds] : b.ledger->self_seconds()) {
    const auto it = kLayerTimes.find(span);
    if (it == kLayerTimes.end()) {
      std::fprintf(stderr, "mntp_e2e: span %s has no layer metric\n", span.c_str());
      std::exit(3);
    }
    t[it->second] = seconds;
  }
  const std::map<std::string, double> total = b.ledger->total_seconds();
  const std::map<std::string, double>& c = b.result.counters;
  const std::map<std::string, double>& v = b.result.layer_values;
  auto at = [](const std::map<std::string, double>& m, const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const double events = at(c, "sim.events_dispatched");
  const double accepted = at(c, "mntp.sample{outcome=accepted_warmup}") +
                          at(c, "mntp.sample{outcome=accepted_regular}");
  const double hits = at(c, "fleet.server.cache_hits");
  const double misses = at(c, "fleet.server.cache_misses");
  return {
      {"sim.run_until_s", at(t, "sim.run_until_s"), "s"},
      {"sim.events", events, "count"},
      {"sim.events_per_s", ratio(events, at(total, "sim.run_until")), "1/s"},
      {"net.sntp_hop_s", at(t, "net.sntp_hop_s"), "s"},
      {"net.wifi_tx", at(c, "net.wifi.tx"), "count"},
      {"net.wifi_drop", at(c, "net.wifi.drop"), "count"},
      {"net.wifi_drop_ratio", ratio(at(c, "net.wifi.drop"), at(c, "net.wifi.tx")),
       "ratio"},
      {"ntp.testbed_build_s", at(t, "ntp.testbed_build_s"), "s"},
      {"ntp.query_sent", at(c, "ntp.query.sent"), "count"},
      {"ntp.query_ok", at(c, "ntp.query.ok"), "count"},
      {"ntp.query_timeout", at(c, "ntp.query.timeout"), "count"},
      {"ntp.query_ok_ratio", ratio(at(c, "ntp.query.ok"), at(c, "ntp.query.sent")),
       "ratio"},
      {"mntp.capture_s", at(t, "mntp.capture_s"), "s"},
      {"mntp.emulate_s", at(t, "mntp.emulate_s"), "s"},
      {"mntp.search_s", at(t, "mntp.search_s"), "s"},
      {"mntp.emulate_us_per_config", at(v, "mntp.emulate_us_per_config"), "us"},
      {"mntp.rounds", at(c, "mntp.rounds"), "count"},
      {"mntp.deferrals", at(c, "mntp.deferrals"), "count"},
      {"mntp.rejected",
       at(c, "mntp.sample{outcome=rejected_false_ticker}") +
           at(c, "mntp.sample{outcome=rejected_filter}"),
       "count"},
      {"mntp.accept_ratio", ratio(accepted, at(c, "mntp.sample")), "ratio"},
      {"fleet.build_s", at(t, "fleet.build_s"), "s"},
      {"fleet.run_s", at(t, "fleet.run_s"), "s"},
      {"fleet.report_s", at(t, "fleet.report_s"), "s"},
      {"fleet.queries", at(c, "fleet.client.queries"), "count"},
      {"fleet.dropped", at(c, "fleet.client.dropped"), "count"},
      {"fleet.kod", at(c, "fleet.server.kod"), "count"},
      {"fleet.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"fleet.max_server_share", at(v, "fleet.max_server_share"), "ratio"},
      {"obs.export_s", at(t, "obs.export_s"), "s"},
      {"obs.bytes_written", at(v, "obs.bytes_written"), "B"},
      {"unattributed_s", at(t, "unattributed_s"), "s"},
      {"bench.trace_overhead_s", overhead_s, "s"},
      {"bench.traced_wall_s", b.wall_s, "s"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse_cli(argc, argv);
  const WorkloadSpec& spec = *cli.workload;
  std::error_code ec;
  std::filesystem::create_directories(cli.out_dir, ec);
  if (ec) usage_error("cannot create --out-dir " + cli.out_dir);

  const WorkloadOptions options{.seed = cli.seed,
                                .threads = worker_threads(),
                                .out_dir = cli.out_dir,
                                .inject_failure = cli.inject_failure};
  std::vector<Batch> untraced;
  std::vector<Batch> traced;
  // The host's speed, sampled between batches (see reference.h).
  std::vector<double> reference;
  double rss_mb = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    reference.push_back(reference_cpu_s(options.threads));
    reset_peak_rss();
    untraced.push_back(run_batch(spec, options, false));
    rss_mb = std::max(rss_mb, peak_rss_mb());
    if (cli.trace) traced.push_back(run_batch(spec, options, true));
  } while (std::chrono::duration<double>(Clock::now() - start).count() <
           cli.seconds);
  reference.push_back(reference_cpu_s(options.threads));
  // CPU seconds on the host as the run found it -> on the nominal host.
  const double to_nominal =
      kReferenceNominalCpuS / mntp::core::percentile(reference, 50.0);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::set<std::string> failures;
  for (const auto* set : {&untraced, &traced}) {
    for (const Batch& b : *set) {
      for (const Check& check : b.result.checks) {
        ++attempted;
        if (!check.pass) {
          ++failed;
          failures.insert(check.what);
        }
      }
    }
  }
  for (const std::string& what : failures) {
    std::fprintf(stderr, "mntp_e2e: check failed: %s\n", what.c_str());
  }

  std::printf("workload %s: seed %llu, %zu untraced + %zu traced batches, "
              "%zu worker threads\n",
              spec.name, static_cast<unsigned long long>(cli.seed),
              untraced.size(), traced.size(), options.threads);
  std::printf("  untraced batch wall / CPU (s):");
  for (const Batch& b : untraced) std::printf(" %.3f/%.3f", b.wall_s, b.cpu_s);
  std::printf("\n  reference CPU per thread (s):");
  for (const double r : reference) std::printf(" %.4f", r);
  std::printf("\n  host CPU s -> nominal CPU s: x%.4f\n", to_nominal);
  std::printf("  host_cpu_s = %.6g\n",
              median_of(untraced, [](const Batch& b) { return b.cpu_s; }));
  std::vector<Metric> metrics;
  if (!cli.trace) {
    const Batch& first = untraced.front();
    metrics = {
        {"cpu_s",
         to_nominal * median_of(untraced, [](const Batch& b) { return b.cpu_s; }),
         "s"},
        {"setup_s",
         to_nominal *
             median_of(untraced, [](const Batch& b) { return b.result.setup_s; }),
         "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"work_per_cpu_s", median_of(untraced, work_per_cpu_s) / to_nominal, "1/s"},
        {"requests_per_client_h", first.result.requests_per_client_h, "1/h"},
        {"output_ms", first.result.output_ms, "ms"},
    };
    // Wall-clock figures, and the same figures under the names the
    // paper-facing benches use.
    std::printf("  wall_s = %.6g\n  %s = %.6g (per wall second)\n",
                median_of(untraced, [](const Batch& b) { return b.wall_s; }),
                spec.rate_name, median_of(untraced, work_per_s));
    std::printf("  %s = %.6g\n  %s = %.6g\n", spec.requests_name, metrics[4].value,
                spec.output_name, metrics[5].value);
    for (const auto& [name, value] : first.result.figures) {
      std::printf("  %s = %.6g\n", name.c_str(), value);
    }
    if (first.result.clients > 0) {
      std::printf("  bytes_per_client = %.6g\n",
                  rss_mb * 1024.0 * 1024.0 /
                      static_cast<double>(first.result.clients));
    }
  } else {
    const Batch& mid = median_batch(traced);
    metrics = per_layer_metrics(
        mid, mid.wall_s - median_of(untraced, [](const Batch& b) { return b.wall_s; }));
    double layer_sum = 0.0;
    for (const auto& [span, metric] : kLayerTimes) {
      for (const Metric& m : metrics) {
        if (m.name == metric) layer_sum += m.value;
      }
    }
    std::printf("  layer times + unattributed_s = %.9f s, traced wall = %.9f s\n",
                layer_sum, mid.wall_s);
    const std::string spans_path = cli.out_dir + "/" + spec.name + "-seed" +
                                   std::to_string(cli.seed) + "-spans.json";
    const std::string run_id =
        std::string(spec.name) + "/seed" + std::to_string(cli.seed);
    if (mid.ledger->write_json(spans_path, run_id)) {
      std::printf("  spans: %s\n", spans_path.c_str());
    } else {
      std::fprintf(stderr, "mntp_e2e: cannot write %s\n", spans_path.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.9g %s\n", m.name.c_str(), m.value, m.unit);
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}
