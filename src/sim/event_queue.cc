#include "sim/event_queue.h"

#include <stdexcept>
#include <utility>

namespace mntp::sim {

void EventQueue::cancel_slot(std::uint32_t slot, std::uint32_t generation) {
  if (!slot_pending(slot, generation)) return;
  release_slot(slot);  // the heap entry is now a tombstone
  ++dead_;
  if (dead_ > kCompactionFloor && dead_ > heap_.size() / 2) compact();
}

void EventQueue::compact() {
  std::size_t kept = 0;
  for (const HeapEntry& e : heap_) {
    if (entry_live(e)) heap_[kept++] = e;
  }
  heap_.resize(kept);
  dead_ = 0;
  // Floyd build-heap over the survivors. The heap's internal layout has
  // no behavioural surface: (time, seq) is a total order, so pop order
  // is identical whether or not compaction ran.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
      heap_sift_down(i);
    }
  }
}

core::TimePoint EventQueue::run_next() {
  drop_dead();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::run_next on empty queue");
  }
  const HeapEntry entry = heap_[0];
  heap_pop_root();
  // Move the action out and release the slot BEFORE invoking: the action
  // may schedule (possibly reusing this very slot) or cancel freely.
  Action action = std::move(slots_[entry.slot].action);
  release_slot(entry.slot);
  action();
  return core::TimePoint::from_ns(entry.when_ns);
}

}  // namespace mntp::sim
