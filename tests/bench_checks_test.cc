// Bench exit status: a bench exits 0 when every shape check holds and 1
// when any fails, however many; 2 stays the usage-error code.
#include <gtest/gtest.h>

#include <string>

#include "common.h"

namespace mntp::bench {
namespace {

int finish_quietly(const Checks& checks) {
  testing::internal::CaptureStdout();
  const int status = checks.finish("test");
  (void)testing::internal::GetCapturedStdout();
  return status;
}

TEST(BenchChecks, AllPassingExitsZero) {
  Checks checks;
  checks.expect(true, "holds");
  checks.expect_near(1.0, 1.0, 0.1, "near");
  EXPECT_EQ(finish_quietly(checks), 0);
}

TEST(BenchChecks, TwoFailedExpectsExitOne) {
  Checks checks;
  checks.expect(false, "first");
  checks.expect(true, "holds");
  checks.expect(false, "second");
  testing::internal::CaptureStdout();
  EXPECT_EQ(checks.finish("two failures"), 1);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("3 checks, 2 failed"), std::string::npos) << out;
}

TEST(BenchChecks, ManyFailedExpectsStillExitOne) {
  // A failure count as the exit code would wrap to 0 at 256.
  Checks checks;
  for (int i = 0; i < 256; ++i) checks.expect(false, "fails");
  EXPECT_EQ(finish_quietly(checks), 1);
}

}  // namespace
}  // namespace mntp::bench
