#include "core/fixed_function.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

namespace mntp::core {
namespace {

TEST(FixedFunction, DefaultIsEmpty) {
  FixedFunction<int()> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(FixedFunction, InvokesWithArgsAndResult) {
  FixedFunction<int(int, int)> fn([](int a, int b) { return a + b; });
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(fn(2, 3), 5);
}

TEST(FixedFunction, SmallCaptureStaysInline) {
  int hits = 0;
  FixedFunction<void()> fn([&hits] { ++hits; });
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(FixedFunction, MoveTransfersCallableAndEmptiesSource) {
  int hits = 0;
  FixedFunction<void()> a([&hits] { ++hits; });
  FixedFunction<void()> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  FixedFunction<void()> c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(FixedFunction, MoveOnlyCaptureWorks) {
  auto p = std::make_unique<int>(7);
  FixedFunction<int()> fn([p = std::move(p)] { return *p; });
  FixedFunction<int()> moved(std::move(fn));
  EXPECT_EQ(moved(), 7);
}

struct DtorCounter {
  explicit DtorCounter(int* count) : count_(count) {}
  DtorCounter(DtorCounter&& other) noexcept
      : count_(std::exchange(other.count_, nullptr)) {}
  DtorCounter(const DtorCounter&) = delete;
  ~DtorCounter() {
    if (count_ != nullptr) ++*count_;
  }
  void operator()() const {}
  int* count_;
};

TEST(FixedFunction, DestroyRunsCaptureDestructorExactlyOnce) {
  int destroyed = 0;
  {
    FixedFunction<void()> fn{DtorCounter(&destroyed)};
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(FixedFunction, MoveDoesNotDoubleDestroy) {
  int destroyed = 0;
  {
    FixedFunction<void()> a{DtorCounter(&destroyed)};
    FixedFunction<void()> b(std::move(a));
    EXPECT_EQ(destroyed, 0);  // relocation moved, did not destroy the payload
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(FixedFunction, MoveAssignDestroysPreviousTarget) {
  int first = 0;
  int second = 0;
  FixedFunction<void()> fn{DtorCounter(&first)};
  fn = FixedFunction<void()>(DtorCounter(&second));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  fn.reset();
  EXPECT_EQ(second, 1);
}

TEST(FixedFunction, ResetMakesEmptyAndIsIdempotent) {
  int destroyed = 0;
  FixedFunction<void()> fn{DtorCounter(&destroyed)};
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_EQ(destroyed, 1);
  fn.reset();
  EXPECT_EQ(destroyed, 1);
}

TEST(FixedFunction, EmplaceReplacesInPlace) {
  FixedFunction<int()> fn([] { return 1; });
  fn.emplace([] { return 2; });
  EXPECT_EQ(fn(), 2);
}

}  // namespace
}  // namespace mntp::core
