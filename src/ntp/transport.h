// Client-side query engine: one full SNTP/NTP exchange over simulated
// links, asynchronously against the event kernel.
//
// The engine owns the request lifecycle: stamp T1 from the client clock,
// serialize real wire bytes, traverse the uplink path, let the server
// stamp T2/T3, traverse the downlink path, stamp T4, validate (RFC 4330
// checks), and deliver an SntpSample — or a typed error on loss, timeout,
// or validation failure. Retries are the caller's policy, not the
// engine's (the SNTP client never retries; MNTP defers instead).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/result.h"
#include "core/rng.h"
#include "core/time.h"
#include "net/link.h"
#include "ntp/server.h"
#include "ntp/sntp.h"
#include "sim/clock_model.h"
#include "sim/simulation.h"

namespace mntp::ntp {

/// Where and how to reach one server.
struct ServerEndpoint {
  NtpServer* server = nullptr;
  net::LinkPath up;    ///< client -> server
  net::LinkPath down;  ///< server -> client
};

struct QueryOptions {
  /// Give up if no (valid) reply arrives within this long, measured on
  /// the true timeline.
  core::Duration timeout = core::Duration::seconds(6);
  /// Emit a minimal SNTP request (true) or a full NTP client packet.
  bool sntp_style = true;
  /// Bytes on the wire including UDP/IP overhead (the paper cites ~128 B
  /// NTP polls; the header itself is 48 B).
  std::size_t wire_bytes = 76;
};

class QueryEngine {
 public:
  using Callback = std::function<void(core::Result<SntpSample>)>;

  /// `clock` is the client's system clock used for T1/T4 stamping.
  QueryEngine(sim::Simulation& sim, sim::DisciplinedClock& clock);
  /// Exchanges still in flight outlive the engine in the event queue;
  /// their events become no-ops (the user callback never fires).
  ~QueryEngine();
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Issue one exchange; exactly one callback will fire (sample, loss
  /// mapped to timeout, or validation error).
  void query(const ServerEndpoint& endpoint, const QueryOptions& options,
             Callback callback);

  [[nodiscard]] std::uint64_t requests_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t responses_received() const { return received_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }

 private:
  sim::Simulation& sim_;
  sim::DisciplinedClock& clock_;
  /// Liveness flag shared with every in-flight exchange: false once the
  /// engine is destroyed, so pending events stop touching `this`.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t timeouts_ = 0;
  obs::ShardedCounter* sent_counter_ = nullptr;
  obs::ShardedCounter* ok_counter_ = nullptr;
  obs::ShardedCounter* timeout_counter_ = nullptr;
  obs::ShardedCounter* error_counter_ = nullptr;
  obs::ShardedHdrHistogram* rtt_ms_ = nullptr;
  /// Per-direction one-way delays on the TRUE timeline (the simulator
  /// can observe what a real client cannot). Mergeable HDR histograms —
  /// these are the distributions replicate/fleet aggregation needs.
  obs::ShardedHdrHistogram* owd_up_ms_ = nullptr;
  obs::ShardedHdrHistogram* owd_down_ms_ = nullptr;
  // Timeline probes: latest OWD per direction.
  double last_owd_up_ms_ = 0.0;
  double last_owd_down_ms_ = 0.0;
  bool has_owd_up_ = false;
  bool has_owd_down_ = false;
  obs::ProbeHandle owd_up_probe_;
  obs::ProbeHandle owd_down_probe_;
};

}  // namespace mntp::ntp
