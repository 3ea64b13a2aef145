// Allocation-count regression test for the event core: after warmup
// (slab and heap storage grown to steady state), the schedule/fire
// cycle must perform ZERO heap allocations. Guards the PR's central
// property — per-event cost is slab reuse, not malloc — via a global
// operator new/delete hook that counts every allocation in the process.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Replace the global allocator with a counting passthrough. Linked only
// into this test binary; all overloads funnel through the same counter
// so any allocation path (sized, array, nothrow) is visible.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mntp::sim {
namespace {

core::TimePoint at_ns(std::int64_t ns) { return core::TimePoint::from_ns(ns); }

TEST(EventAllocation, SteadyStateScheduleFireIsAllocationFree) {
  EventQueue q;
  std::uint64_t fired = 0;
  std::int64_t t = 0;

  // Warmup: grow the slab and the heap vector past anything the timed
  // region needs (64 concurrent pending events, far fewer than 512).
  for (int i = 0; i < 512; ++i) {
    q.schedule(at_ns(t += 1'000), [&fired] { ++fired; });
  }
  while (!q.empty()) q.run_next();

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (int round = 0; round < 1'000; ++round) {
    for (int i = 0; i < 64; ++i) {
      q.schedule(at_ns(t += 1'000), [&fired] { ++fired; });
    }
    for (int i = 0; i < 64; ++i) q.run_next();
  }
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);

  EXPECT_EQ(news_after - news_before, 0u)
      << "schedule/fire steady state allocated";
  EXPECT_EQ(fired, 512u + 64'000u);
}

TEST(EventAllocation, SteadyStateCancelRecyclesWithoutSlabGrowth) {
  // Cancel churn: the slab free list must recycle slots; only the heap
  // vector's tombstone compaction may touch memory, and with the dead
  // count bounded by the live window it never does here.
  EventQueue q;
  std::uint64_t fired = 0;
  std::int64_t t = 0;
  for (int i = 0; i < 512; ++i) {
    q.schedule(at_ns(t += 1'000), [&fired] { ++fired; });
  }
  while (!q.empty()) q.run_next();

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (int round = 0; round < 1'000; ++round) {
    EventHandle keep = q.schedule(at_ns(t += 1'000), [&fired] { ++fired; });
    EventHandle drop = q.schedule(at_ns(t += 1'000), [&fired] { ++fired; });
    drop.cancel();
    q.run_next();
    EXPECT_FALSE(keep.pending());
  }
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(news_after - news_before, 0u) << "cancel churn allocated";
  EXPECT_EQ(fired, 512u + 1'000u);
}

TEST(EventAllocation, SimulationAfterPathIsAllocationFreeAtSteadyState) {
  // The full Simulation::after path (time arithmetic + telemetry counter
  // batching included) stays allocation-free once warm.
  Simulation sim;
  std::uint64_t fired = 0;
  for (int i = 0; i < 512; ++i) {
    sim.after(core::Duration::nanoseconds(i + 1), [&fired] { ++fired; });
  }
  sim.run();

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (int round = 0; round < 1'000; ++round) {
    for (int i = 0; i < 16; ++i) {
      sim.after(core::Duration::nanoseconds(i + 1), [&fired] { ++fired; });
    }
    sim.run();
  }
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(news_after - news_before, 0u) << "Simulation::after allocated";
  EXPECT_EQ(fired, 512u + 16'000u);
}

}  // namespace
}  // namespace mntp::sim
