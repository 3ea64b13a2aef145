// Periodic SNTP client.
//
// This is the baseline the paper measures: a client that polls a pool
// server on a fixed interval and uses the reported offset directly
// ("SNTP uses clock offset to update the local clock directly and none
// of the time-tested filtering algorithms"). A failed exchange is not
// retried, and a kiss-of-death reply doubles the poll interval (RFC 4330
// §10), up to 36 h.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/result.h"
#include "core/rng.h"
#include "core/time.h"
#include "ntp/pool.h"
#include "ntp/sntp.h"
#include "ntp/transport.h"
#include "sim/clock_model.h"
#include "sim/simulation.h"

namespace mntp::ntp {

struct SntpClientPolicy {
  core::Duration poll_interval = core::Duration::seconds(5);
  /// Step the system clock by every measured offset. When false the
  /// client only reports offsets — the mode used in the paper's
  /// head-to-head experiments.
  bool update_clock = false;
};

class SntpClient {
 public:
  /// Queries go through `last_hop_up`/`last_hop_down` (nullptr = wired
  /// client directly on the WAN) to a random pool member per poll.
  SntpClient(sim::Simulation& sim, sim::DisciplinedClock& clock,
             ServerPool& pool, net::Link* last_hop_up, net::Link* last_hop_down,
             SntpClientPolicy policy, QueryOptions query_options = {});

  void start();

  /// All accepted samples, in completion order.
  [[nodiscard]] const std::vector<SntpSample>& samples() const { return samples_; }

  /// Measured offsets in milliseconds (convenience for analysis).
  [[nodiscard]] std::vector<double> offsets_ms() const;

  [[nodiscard]] std::size_t polls() const { return polls_; }
  [[nodiscard]] std::size_t failures() const { return failures_; }
  [[nodiscard]] std::size_t clock_updates() const { return clock_updates_; }
  /// Kiss-of-death replies honored (each one lengthens the poll interval).
  [[nodiscard]] std::size_t kod_backoffs() const { return kod_backoffs_; }
  [[nodiscard]] core::Duration current_poll_interval() const {
    return current_poll_;
  }

  /// Observer invoked on every accepted sample (benches hook this to
  /// record series against true time).
  void set_on_sample(std::function<void(const SntpSample&)> cb) {
    on_sample_ = std::move(cb);
  }

 private:
  void poll_once();
  void handle(core::Result<SntpSample> result);

  sim::DisciplinedClock& clock_;
  ServerPool& pool_;
  net::Link* last_hop_up_;
  net::Link* last_hop_down_;
  SntpClientPolicy policy_;
  QueryOptions query_options_;
  QueryEngine engine_;
  sim::PeriodicProcess process_;
  std::vector<SntpSample> samples_;
  std::function<void(const SntpSample&)> on_sample_;
  std::size_t polls_ = 0;
  std::size_t failures_ = 0;
  std::size_t clock_updates_ = 0;
  std::size_t kod_backoffs_ = 0;
  core::Duration current_poll_;
};

}  // namespace mntp::ntp
