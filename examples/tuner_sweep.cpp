// MNTP tuner workflow: capture a trace, persist it as CSV, reload it, and
// grid-search the protocol parameters offline (§5.3).
//
// This is the workflow a deployment engineer would follow: log offsets +
// hints on the target device for a few hours, then replay Algorithm 1
// offline under candidate parameter settings and pick a configuration on
// the accuracy to request-budget frontier.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "mntp/trace.h"
#include "mntp/tuner.h"
#include "ntp/testbed.h"

using namespace mntp;

int main() {
  // 1. Capture: two hours of offsets from 3 sources + hints, every 5 s.
  ntp::TestbedConfig config;
  config.seed = 77;
  config.wireless = true;
  config.ntp_correction = true;
  ntp::Testbed bed(config);
  protocol::tuner::Logger logger(bed.sim(), bed.target_clock(), bed.pool(),
                                 bed.channel(), {}, bed.fork_rng());
  bed.start();
  logger.start();
  bed.sim().run_until(core::TimePoint::epoch() + core::Duration::hours(2));
  logger.stop();
  std::printf("captured %zu trace records (%.0f min)\n", logger.trace().size(),
              logger.trace().span_s() / 60.0);

  // 2. Persist and reload the trace (the CSV is the interchange format
  //    between the on-device logger and the offline tuner). The file goes
  //    to the working directory.
  const std::string path = "mntp_tuner_trace.csv";
  {
    std::ofstream out(path);
    out << logger.trace().to_csv();
    if (!out) {
      std::printf("cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::stringstream buffer;
  {
    std::ifstream in(path);
    buffer << in.rdbuf();
  }
  const auto reloaded = protocol::Trace::from_csv(buffer.str());
  if (!reloaded.ok()) {
    std::printf("trace reload failed: %s\n", reloaded.error().message.c_str());
    return 1;
  }
  std::printf("round-tripped trace through %s (%zu records)\n", path.c_str(),
              reloaded.value().size());

  // 3. Search: sweep the four Algorithm 1 parameters.
  protocol::tuner::SearchSpace space;
  space.warmup_periods = {core::Duration::minutes(15), core::Duration::minutes(30),
                          core::Duration::minutes(60)};
  space.warmup_wait_times = {core::Duration::seconds(15),
                             core::Duration::seconds(30)};
  space.regular_wait_times = {core::Duration::minutes(2),
                              core::Duration::minutes(5),
                              core::Duration::minutes(15)};
  space.reset_periods = {core::Duration::hours(2), core::Duration::hours(4)};
  auto entries = protocol::tuner::search(reloaded.value(), space);

  // 4. Report the accuracy/requests frontier.
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return a.rmse_ms < b.rmse_ms;
  });
  std::printf("\n%zu configurations, best RMSE first:\n", entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::printf("  %2zu. %s\n", i + 1, entries[i].to_string().c_str());
  }

  // Pareto frontier: configurations not dominated in (rmse, requests).
  std::printf("\nPareto-efficient configurations (no cheaper config is more "
              "accurate):\n");
  std::size_t best_requests = SIZE_MAX;
  for (const auto& e : entries) {  // already sorted by RMSE
    if (e.requests < best_requests) {
      best_requests = e.requests;
      std::printf("  * %s\n", e.to_string().c_str());
    }
  }
  return 0;
}
