#include "core/result.h"

#include <gtest/gtest.h>

#include <string>

namespace mntp::core {
namespace {

TEST(Error, FactoriesSetCode) {
  EXPECT_EQ(Error::invalid_argument("x").code, Error::Code::kInvalidArgument);
  EXPECT_EQ(Error::malformed("x").code, Error::Code::kMalformedPacket);
  EXPECT_EQ(Error::timeout("x").code, Error::Code::kTimeout);
  EXPECT_EQ(Error::lost("x").code, Error::Code::kPacketLost);
  EXPECT_EQ(Error::rejected("x").code, Error::Code::kRejected);
  EXPECT_EQ(Error::unavailable("x").code, Error::Code::kUnavailable);
  EXPECT_EQ(Error::not_found("x").code, Error::Code::kNotFound);
  EXPECT_EQ(Error::io("x").code, Error::Code::kIo);
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Error::timeout("late");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kTimeout);
  EXPECT_EQ(r.error().message, "late");
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, ValueOnErrorThrows) {
  Result<int> r = Error::io("disk");
  EXPECT_THROW((void)r.value(), std::logic_error);
}

TEST(Result, ErrorOnValueThrows) {
  Result<int> r = 1;
  EXPECT_THROW((void)r.error(), std::logic_error);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r = std::string("payload");
  const std::string s = std::move(r).take();
  EXPECT_EQ(s, "payload");
}

TEST(Result, MutableValueAccess) {
  Result<std::string> r = std::string("a");
  r.value() += "b";
  EXPECT_EQ(r.value(), "ab");
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_THROW((void)s.error(), std::logic_error);
}

TEST(Status, CarriesError) {
  Status s = Error::unavailable("down");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(static_cast<bool>(s));
  EXPECT_EQ(s.error().code, Error::Code::kUnavailable);
}

}  // namespace
}  // namespace mntp::core
