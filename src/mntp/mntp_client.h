// Live MNTP client: drives the MntpEngine against the simulated testbed.
//
// The client is the deployable artifact the paper describes — "a
// lightweight, simple and easy-to-deploy modification of SNTP": it
// samples wireless hints from the adaptor (here, the channel model),
// defers acquisitions while the channel is unfavorable, fans warm-up
// rounds out to multiple pool servers, feeds results to the engine, and
// (optionally) applies accepted corrections to the system clock.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "core/rng.h"
#include "core/time.h"
#include "mntp/engine.h"
#include "net/wireless_channel.h"
#include "ntp/pool.h"
#include "ntp/transport.h"
#include "sim/clock_model.h"
#include "sim/simulation.h"

namespace mntp::protocol {

/// One hint observation taken at an acquisition opportunity, plus what
/// the client did with it — the raw material of the paper's Figure 7
/// "signals and selection" plot.
struct HintRecord {
  net::WirelessHints hints;
  bool favorable = false;
  bool emitted = false;  ///< favorable AND a request round was sent
};

class MntpClient {
 public:
  /// The `core::Rng` is unused; callers fork it from their testbed's
  /// stream, and dropping that fork would shift the testbed's later draws.
  MntpClient(sim::Simulation& sim, sim::DisciplinedClock& clock,
             ntp::ServerPool& pool, net::WirelessChannel& channel,
             MntpParams params, core::Rng /*unused*/,
             ntp::QueryOptions query_options = {});

  void start();

  [[nodiscard]] const MntpEngine& engine() const { return *engine_; }
  /// Mutable engine access for runtime adaptation (self-tuning). Only
  /// valid after start().
  [[nodiscard]] MntpEngine& mutable_engine() { return *engine_; }
  /// Emissions forced by the max_deferral fallback.
  [[nodiscard]] std::size_t forced_emissions() const {
    return engine_->forced_emissions();
  }
  [[nodiscard]] const std::vector<HintRecord>& hint_log() const {
    return hint_log_;
  }
  [[nodiscard]] std::size_t requests_sent() const { return requests_sent_; }

 private:
  void attempt();
  void run_round(std::size_t sources);
  void finish_round(std::vector<double> offsets_s);

  sim::Simulation& sim_;
  sim::DisciplinedClock& clock_;
  ntp::ServerPool& pool_;
  net::WirelessChannel& channel_;
  MntpParams params_;
  ntp::QueryOptions query_options_;
  ntp::QueryEngine query_engine_;
  std::unique_ptr<MntpEngine> engine_;
  EngineCounters engine_counters_;
  std::vector<HintRecord> hint_log_;
  std::size_t requests_sent_ = 0;
  /// Round trace minted at emission time (attempt()) so the gate
  /// decision, every exchange of the round, and the engine verdict all
  /// land under one query id. Zero while no round is in flight.
  obs::QueryId round_trace_ = 0;
  obs::ShardedCounter* requests_counter_ = nullptr;
  obs::ShardedCounter* forced_counter_ = nullptr;
  obs::ShardedCounter* clock_steps_counter_ = nullptr;
  /// Timeline probe: deferral-gate state at the latest acquisition
  /// opportunity (0 = deferred, 1 = emitted favorably, 2 = forced by the
  /// max_deferral fallback). Inert unless the recorder captures.
  obs::ProbeHandle gate_probe_;
  /// Timeline probes registered with each engine start() creates: the
  /// latest accepted offset, the engine's drift estimate, and its
  /// deferral tally.
  obs::ProbeHandle offset_probe_;
  obs::ProbeHandle drift_probe_;
  obs::ProbeHandle deferral_probe_;
  std::optional<double> last_accepted_offset_s_;
};

}  // namespace mntp::protocol
