#include "net/link.h"

#include <memory>
#include <utility>

#include "sim/simulation.h"

namespace mntp::net {

namespace {

/// One datagram in flight. Exactly one owner at a time: send_datagram's
/// frame, then the pending event of the hop the packet is crossing. The
/// walker dies with that owner — after the end-to-end callback, after a
/// drop, or when the simulation is destroyed with the event still queued.
struct Walker {
  sim::Simulation& sim;
  LinkPath path;
  std::size_t bytes;
  ArrivalFn on_arrival;
  DropFn on_drop;
  /// Non-null only when this datagram belongs to a query minted while
  /// tracing was on (recorded or not; obs::recorded tells which).
  obs::QueryTracer* tracer = nullptr;
  obs::QueryId query = 0;
};

/// Evaluate hop `hop_index` at time `t`, then hand the walker to the event
/// at the packet's arrival on the next hop.
void step(std::unique_ptr<Walker> w, std::size_t hop_index,
          core::TimePoint t) {
  if (hop_index == w->path.hop_count()) {
    if (w->on_arrival) w->on_arrival(t);
    return;
  }
  TransmitResult r;
  if (w->tracer) {
    // Channel models under this transmit() see the packet's query as
    // ambient and can record airtime detail (retries, queueing, ...).
    // An unrecorded query installs its scope too: it hides whatever
    // query sent the packet, so airtime never lands on that one.
    obs::ActiveQueryScope scope(*w->tracer, w->query);
    r = w->path.hop(hop_index).transmit(t, w->bytes);
  } else {
    r = w->path.hop(hop_index).transmit(t, w->bytes);
  }
  if (!r.delivered) {
    if (obs::recorded(w->query)) {
      w->tracer->stage(w->query, t, "loss", obs::Reason::kLoss,
                       {{"hop", static_cast<std::int64_t>(hop_index)}});
    }
    if (w->on_drop) w->on_drop();
    return;
  }
  if (obs::recorded(w->query)) {
    w->tracer->stage(w->query, t, "hop", obs::Reason::kNone,
                     {{"hop", static_cast<std::int64_t>(hop_index)},
                      {"delay_ms", r.delay.to_millis()}});
  }
  const core::TimePoint next = t + r.delay;
  sim::Simulation& sim = w->sim;
  sim.at(next, [w = std::move(w), hop_index, next]() mutable {
    step(std::move(w), hop_index + 1, next);
  });
}

}  // namespace

void send_datagram(sim::Simulation& sim, const LinkPath& path,
                   std::size_t bytes, ArrivalFn on_arrival, DropFn on_drop,
                   obs::QueryId query) {
  auto w = std::make_unique<Walker>(sim, path, bytes, std::move(on_arrival),
                                    std::move(on_drop));
  if (query != 0) {
    obs::QueryTracer& tracer = sim.telemetry().query_tracer();
    if (tracer.enabled()) {
      w->tracer = &tracer;
      w->query = query;
    }
  }
  step(std::move(w), 0, sim.now());
}

}  // namespace mntp::net
