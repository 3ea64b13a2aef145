// Link abstraction.
//
// A Link decides, per packet, whether the packet survives and how long it
// takes to traverse the hop. Links are stateful (channels fade, queues
// fill); both decisions may depend on when the packet is offered, and
// stateful links require queries in non-decreasing time order.
// Directionality matters: a duplex hop is modeled as two Link endpoints
// (possibly sharing state), which is what lets the cellular model express
// the uplink/downlink asymmetry that biases SNTP offsets.
//
// send_datagram moves one packet across a LinkPath, one simulation event
// per hop. A path is an inline array of Link pointers, the callbacks are
// core::FixedFunction (captures stored inline up to a fixed budget), and
// the only allocation per datagram is its walker, owned by the pending
// hop event.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <type_traits>

#include "core/fixed_function.h"
#include "core/time.h"
#include "obs/query_trace.h"

namespace mntp::sim {
class Simulation;
}

namespace mntp::net {

/// Outcome of offering one packet to a link.
struct TransmitResult {
  bool delivered = false;
  /// One-way traversal time; meaningful only when delivered.
  core::Duration delay = core::Duration::zero();
};

class Link {
 public:
  virtual ~Link() = default;

  /// Offer a packet of `bytes` at true time `now`. `now` must be
  /// non-decreasing across calls for stateful links — which is why
  /// multi-hop traversal is event-driven (see send_datagram).
  virtual TransmitResult transmit(core::TimePoint now, std::size_t bytes) = 0;
};

/// An ordered sequence of links forming a unidirectional path. The packet
/// is lost if any hop drops it; delays accumulate hop by hop. The hops
/// live inline (no path in the simulator is longer than kMaxHops), so a
/// path is trivially copyable and copying one never allocates.
class LinkPath {
 public:
  static constexpr std::size_t kMaxHops = 4;

  LinkPath() = default;
  explicit LinkPath(std::initializer_list<Link*> hops) {
    for (Link* h : hops) append(*h);
  }

  /// Throws std::length_error past kMaxHops.
  void append(Link& hop) {
    if (count_ == kMaxHops) {
      throw std::length_error("LinkPath: more than kMaxHops hops");
    }
    hops_[count_++] = &hop;
  }

  [[nodiscard]] std::size_t hop_count() const { return count_; }
  /// Throws std::out_of_range for i >= hop_count().
  [[nodiscard]] Link& hop(std::size_t i) const {
    if (i >= count_) throw std::out_of_range("LinkPath::hop");
    return *hops_[i];
  }

 private:
  std::array<Link*, kMaxHops> hops_{};
  std::size_t count_ = 0;
};
static_assert(std::is_trivially_copyable_v<LinkPath>);

/// Delivery callback: the datagram's end-to-end arrival time. Captures up
/// to 48 bytes stay inline (see core/fixed_function.h).
using ArrivalFn = core::FixedFunction<void(core::TimePoint), 48>;
/// Loss callback, fired at the drop instant.
using DropFn = core::FixedFunction<void(), 32>;

/// Fire-and-forget datagram send. The packet traverses `path` hop by hop;
/// each hop is evaluated by a simulation event at the packet's arrival
/// time at that hop, preserving the time-monotonic query contract of
/// stateful links. On end-to-end delivery `on_arrival(arrival_time)`
/// fires; if any hop drops the packet `on_drop()` fires (at the drop
/// instant) when provided. Exactly one of the two callbacks runs.
///
/// The path is copied into the datagram, so `path` need not outlive the
/// call. Each send makes one heap allocation: the datagram's walker,
/// owned by its pending hop event (destroying the simulation with the
/// datagram in flight frees it).
///
/// `query` optionally ties the datagram to a query trace (see
/// obs/query_trace.h): each surviving hop records a "hop" stage, a drop
/// records a "loss" stage naming the hop, and the ambient query is
/// installed around each transmit() so channel models can attach
/// airtime detail. Id 0 (the default) traces nothing.
void send_datagram(sim::Simulation& sim, const LinkPath& path,
                   std::size_t bytes, ArrivalFn on_arrival,
                   DropFn on_drop = {}, obs::QueryId query = 0);

}  // namespace mntp::net
