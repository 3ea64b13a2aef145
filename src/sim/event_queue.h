// Discrete-event queue — allocation-free on the schedule/fire hot path.
//
// Three pieces replace the old shared_ptr-flag + std::function +
// std::priority_queue design (two heap allocations per schedule() and a
// const_cast move-out of top()):
//
//   * A slab of slot records recycled through a free list. Each slot
//     holds the event's action and a generation counter; `EventHandle`
//     is a POD `{queue, slot, generation}` triple, so cancelling or
//     querying a handle whose slot was recycled is safely inert — the
//     generation no longer matches. No per-event control block.
//   * `core::FixedFunction<void(), 48>` stores the action: captures up
//     to 48 bytes live inline in the slot (zero allocations); a larger
//     capture does not compile.
//   * An explicit 4-ary min-heap over POD entries `(time, seq, slot,
//     generation)`. Pop moves entries out of a plain vector — no
//     const_cast — and the 4-ary layout halves the sift-down depth of a
//     binary heap on the deep queues the churn bench builds.
//
// Ties at the same instant fire in scheduling order (FIFO via `seq`),
// which keeps simulations deterministic and makes cause-before-effect
// reasoning valid within a timestep. Cancellation is O(1): the slot is
// released immediately and its heap entry becomes a tombstone (the
// generations disagree), dropped lazily when it surfaces at the head —
// or eagerly, in bulk, when tombstones exceed the bounded-slack
// compaction rule (more than max(64, size()/2) dead entries triggers a
// filter + re-heapify so a cancel-heavy workload cannot grow the heap
// without bound).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/fixed_function.h"
#include "core/time.h"

namespace mntp::sim {

class EventQueue;

/// Handle to a scheduled event, usable to cancel it before it fires.
/// Handles must not outlive the queue that issued them (they hold a
/// plain pointer to it); within the queue's lifetime a stale handle —
/// fired, cancelled, or its slot since recycled — is safely inert.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event; a no-op if it already fired or was cancelled.
  void cancel();

  /// True while the event is still scheduled to fire.
  [[nodiscard]] bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  /// Inline capture budget per event; sized so every scheduling site on
  /// the simulator's hot paths (this-pointer plus a few words) stays
  /// allocation-free.
  using Action = core::FixedFunction<void(), 48>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `action` at absolute time `when`. Returns a cancel handle.
  /// The callable is constructed directly in its slab slot (no temporary
  /// Action, no relocation) — together with the inline capture buffer
  /// this makes schedule() allocation-free for captures <= 48 bytes.
  template <typename F>
  EventHandle schedule(core::TimePoint when, F&& action) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.action.emplace(std::forward<F>(action));
    heap_.push_back(HeapEntry{when.ns(), next_seq_++, slot, s.generation});
    heap_sift_up(heap_.size() - 1);
    return EventHandle{this, slot, s.generation};
  }

  [[nodiscard]] bool empty() const {
    drop_dead();
    return heap_.empty();
  }

  /// Time of the earliest live event; TimePoint::max() when empty.
  [[nodiscard]] core::TimePoint next_time() const {
    drop_dead();
    return heap_.empty() ? core::TimePoint::max()
                         : core::TimePoint::from_ns(heap_[0].when_ns);
  }

  /// Pop and run the earliest live event; returns its time. Requires
  /// !empty().
  core::TimePoint run_next();

  /// Number of scheduled events not yet fired, INCLUDING cancelled
  /// entries that have not yet been purged — an upper bound on live
  /// events, never an undercount. Purging is lazy but not tied to
  /// run_next() alone: every accessor that inspects the heap head
  /// (empty(), next_time(), run_next()) drops cancelled entries that
  /// have reached the head, so a cancel followed by any peek may lower
  /// size() by more than the peek itself consumed. The bound is exact
  /// (size() == live events) whenever no cancelled entry is buried
  /// behind a live one.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Cancelled entries still occupying heap space (awaiting lazy purge
  /// or compaction); size() - dead_entries() is the live-event count.
  [[nodiscard]] std::size_t dead_entries() const { return dead_; }

 private:
  friend class EventHandle;

  /// Heap entries are POD: the action lives in the slab, so sift moves
  /// are trivially-copyable 24-byte shuffles.
  struct HeapEntry {
    std::int64_t when_ns;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  struct Slot {
    Action action;
    /// Bumped on every release (fire/cancel/clear); a handle or heap
    /// entry whose generation disagrees is stale. 32 bits wrap after
    /// 4G reuses of one slot — far beyond any simulation here.
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNilSlot;
  };

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// Compaction slack floor: tombstones are tolerated until they exceed
  /// max(kCompactionFloor, size()/2).
  static constexpr std::size_t kCompactionFloor = 64;

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
    return a.seq < b.seq;
  }

  [[nodiscard]] bool entry_live(const HeapEntry& e) const {
    return slots_[e.slot].generation == e.generation;
  }

  [[nodiscard]] std::uint32_t acquire_slot() {
    if (free_head_ != kNilSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      slots_[slot].next_free = kNilSlot;
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.action.reset();
    ++s.generation;  // invalidates every outstanding handle + heap entry
    s.next_free = free_head_;
    free_head_ = slot;
  }

  void cancel_slot(std::uint32_t slot, std::uint32_t generation);
  [[nodiscard]] bool slot_pending(std::uint32_t slot,
                                  std::uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation;
  }

  // The heap mutations below are physically non-const but logically
  // const: purging tombstones never changes the set of live events.
  void heap_sift_up(std::size_t i) const {
    const HeapEntry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void heap_sift_down(std::size_t i) const {
    const std::size_t n = heap_.size();
    const HeapEntry e = heap_[i];
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }
  void heap_pop_root() const {
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) heap_sift_down(0);
  }
  /// Drop tombstones that have surfaced at the heap head.
  void drop_dead() const {
    while (!heap_.empty() && !entry_live(heap_[0])) {
      heap_pop_root();
      --dead_;
    }
  }
  /// Remove ALL tombstones and re-heapify (the compaction rule).
  void compact();

  mutable std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 0;
  /// Tombstoned entries currently in heap_.
  mutable std::size_t dead_ = 0;
};

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel_slot(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->slot_pending(slot_, generation_);
}

}  // namespace mntp::sim
