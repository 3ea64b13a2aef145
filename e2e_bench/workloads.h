// The benchmark's four workloads. Each runs one batch through the
// library's public API, checks its outputs, and reports what it did; the
// benchmark's main.cc repeats batches, times them and prints the metrics.
#pragma once

#include <time.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"

namespace mntp::e2e {

/// CPU seconds consumed so far by every thread of this process (the
/// default) or by the calling thread (CLOCK_THREAD_CPUTIME_ID). Unlike
/// wall time they leave out time the host hands to other tenants.
inline double cpu_seconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct WorkloadOptions {
  /// Base of the workload's seed set (see manifest.json).
  std::uint64_t seed = 1;
  /// Worker threads for the fleet simulator (never above nproc).
  std::size_t threads = 1;
  /// Directory for files a workload writes (testbed_observed artifacts).
  std::string out_dir;
  /// Add one check that always fails (self-test of the failure path).
  bool inject_failure = false;
};

struct Check {
  std::string what;
  bool pass = false;
};

struct BatchResult {
  /// Set-up CPU seconds inside the batch (testbed assembly, trace capture
  /// or population build), measured whether or not the ledger is enabled.
  double setup_s = 0.0;
  /// Work items completed, and the wall and CPU seconds of the interval
  /// the rates are taken over; 0 means "the whole batch".
  double work = 0.0;
  double work_s = 0.0;
  double work_cpu_s = 0.0;
  double requests_per_client_h = 0.0;
  double output_ms = 0.0;
  /// Fleet size, for bytes_per_client (0 for the testbed workloads).
  std::uint64_t clients = 0;
  std::vector<Check> checks;
  /// Counter totals from the batch's registry snapshot, keyed both by
  /// name (summed over labels) and by `name{key=value,...}`.
  std::map<std::string, double> counters;
  /// Per-layer values the workload computes itself (non-time).
  std::map<std::string, double> layer_values;
  /// Further paper-facing figures, printed but not gated.
  std::map<std::string, double> figures;
};

struct WorkloadSpec {
  const char* name;
  /// Names (as the paper-facing output calls them) of the workload's
  /// work_per_s, requests_per_client_h and output_ms figures.
  const char* rate_name;
  const char* requests_name;
  const char* output_name;
  BatchResult (*run)(const WorkloadOptions&, Ledger&);
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();

}  // namespace mntp::e2e
