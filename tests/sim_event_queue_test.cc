#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/rng.h"

namespace mntp::sim {
namespace {

using core::Duration;
using core::TimePoint;

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::epoch() + Duration::milliseconds(ms);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at_ms(30), [&] { order.push_back(3); });
  q.schedule(at_ms(10), [&] { order.push_back(1); });
  q.schedule(at_ms(20), [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(at_ms(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunNextReturnsEventTime) {
  EventQueue q;
  q.schedule(at_ms(7), [] {});
  EXPECT_EQ(q.run_next(), at_ms(7));
}

TEST(EventQueue, NextTimeOnEmptyIsMax) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), TimePoint::max());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunNextOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.run_next(), std::logic_error);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(at_ms(1), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterRunIsNoop) {
  EventQueue q;
  EventHandle h = q.schedule(at_ms(1), [] {});
  q.run_next();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or corrupt
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledMiddleEventSkipped) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at_ms(1), [&] { order.push_back(1); });
  EventHandle h = q.schedule(at_ms(2), [&] { order.push_back(2); });
  q.schedule(at_ms(3), [&] { order.push_back(3); });
  h.cancel();
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, EventMaySchedule) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at_ms(1), [&] {
    order.push_back(1);
    q.schedule(at_ms(2), [&] { order.push_back(2); });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
}

// Pins the size() contract: an upper bound that counts cancelled entries
// until lazy purging reaches them — and purging happens on ANY
// head-inspecting accessor (empty(), next_time(), run_next()), not only
// when the entry would have fired.
TEST(EventQueue, SizeAcrossCancelPeekRunSequences) {
  EventQueue q;
  EventHandle a = q.schedule(at_ms(1), [] {});
  EventHandle b = q.schedule(at_ms(2), [] {});
  q.schedule(at_ms(3), [] {});
  EXPECT_EQ(q.size(), 3u);

  // Cancelling a buried entry does NOT change size() by itself.
  b.cancel();
  EXPECT_EQ(q.size(), 3u);

  // Cancelling the head entry still doesn't change size() — no peek yet.
  a.cancel();
  EXPECT_EQ(q.size(), 3u);

  // A const peek purges cancelled entries at the head: a drops here.
  EXPECT_EQ(q.next_time(), at_ms(3));  // b is gone too: it surfaced next
  EXPECT_EQ(q.size(), 1u);

  // run_next() consumes the one live event.
  q.run_next();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeUpperBoundNeverUndercounts) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(q.schedule(at_ms(i + 1), [] {}));
  }
  // Cancel every other event; size() stays an upper bound on the 5 live.
  for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
  EXPECT_GE(q.size(), 5u);
  EXPECT_EQ(q.size(), 10u);  // nothing purged yet

  std::size_t ran = 0;
  while (!q.empty()) {  // empty() purges any cancelled head first
    EXPECT_GE(q.size(), 5u - ran);
    q.run_next();
    ++ran;
  }
  EXPECT_EQ(ran, 5u);
  EXPECT_EQ(q.size(), 0u);
}

// Slot recycling safety: a handle from a previous tenancy of a slab
// slot must never cancel (or report pending for) the slot's new tenant.
TEST(EventQueue, StaleHandleCannotCancelRecycledSlot) {
  EventQueue q;
  bool first = false;
  bool second = false;
  EventHandle old = q.schedule(at_ms(1), [&] { first = true; });
  old.cancel();  // frees the slot; generation bumps
  // The freed slot is recycled for the next schedule.
  EventHandle fresh = q.schedule(at_ms(2), [&] { second = true; });
  EXPECT_FALSE(old.pending());
  old.cancel();  // stale generation: must be a no-op on the new tenant
  EXPECT_TRUE(fresh.pending());
  while (!q.empty()) q.run_next();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(EventQueue, StaleHandleAfterRunCannotTouchRecycledSlot) {
  EventQueue q;
  int fired = 0;
  EventHandle old = q.schedule(at_ms(1), [&] { ++fired; });
  q.run_next();  // slot released on fire
  EventHandle fresh = q.schedule(at_ms(2), [&] { ++fired; });
  EXPECT_FALSE(old.pending());
  old.cancel();
  EXPECT_TRUE(fresh.pending());
  q.run_next();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, HandlesStayDistinctAcrossManyRecycles) {
  // Drive one slot through many schedule/cancel generations; every
  // retired handle must stay inert while the live one works.
  EventQueue q;
  std::vector<EventHandle> retired;
  for (int i = 0; i < 100; ++i) {
    EventHandle h = q.schedule(at_ms(1), [] {});
    for (EventHandle& stale : retired) {
      EXPECT_FALSE(stale.pending());
      stale.cancel();  // all no-ops
    }
    EXPECT_TRUE(h.pending());
    h.cancel();
    retired.push_back(h);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ActionMayRescheduleIntoItsOwnSlot) {
  // The firing event's slot is released before its action runs, so a
  // self-rescheduling chain may legally land in the very same slot.
  EventQueue q;
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 5) q.schedule(at_ms(fired + 1), [&] { tick(); });
  };
  q.schedule(at_ms(1), [&] { tick(); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 5);
}

// Golden event-order regression: a randomized schedule/cancel workload
// checked against a reference model (stable sort by (time, seq) with
// cancelled entries removed). Pins the FIFO-tie contract and that the
// 4-ary heap + tombstone purge + compaction never reorder live events.
TEST(EventQueue, GoldenOrderMatchesReferenceModel) {
  EventQueue q;
  core::Rng rng(20260806);

  struct Expected {
    std::int64_t when_ms;
    std::size_t seq;  // schedule order = FIFO rank within a tie
    std::size_t id;
  };
  std::vector<Expected> expected;
  std::vector<EventHandle> handles;
  std::vector<std::size_t> fired;

  for (std::size_t i = 0; i < 2'000; ++i) {
    const auto when_ms = static_cast<std::int64_t>(rng.uniform(1.0, 64.0));
    handles.push_back(
        q.schedule(at_ms(when_ms), [&fired, i] { fired.push_back(i); }));
    expected.push_back({when_ms, i, i});
  }
  // Cancel a pseudo-random third, including long cancelled runs that
  // force tombstone purge (and, at this volume, compaction) to engage.
  std::vector<bool> cancelled(handles.size(), false);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (static_cast<int>(rng.uniform(0.0, 3.0)) == 0 ||
        (i >= 500 && i < 700)) {
      handles[i].cancel();
      cancelled[i] = true;
    }
  }

  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expected& a, const Expected& b) {
                     return a.when_ms != b.when_ms ? a.when_ms < b.when_ms
                                                   : a.seq < b.seq;
                   });
  std::vector<std::size_t> golden;
  for (const Expected& e : expected) {
    if (!cancelled[e.id]) golden.push_back(e.id);
  }

  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, golden);
}

}  // namespace
}  // namespace mntp::sim
