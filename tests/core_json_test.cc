#include "core/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/json_writer.h"

namespace mntp::core {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").value().is_null());
  EXPECT_TRUE(Json::parse("true").value().as_bool());
  EXPECT_FALSE(Json::parse("false").value().as_bool());
  EXPECT_EQ(Json::parse("42").value().as_int(), 42);
  EXPECT_EQ(Json::parse("-17").value().as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").value().as_double(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-2e3").value().as_double(), -2000.0);
  EXPECT_EQ(Json::parse("\"hi\"").value().as_string(), "hi");
}

TEST(Json, IntegersStayExact) {
  const Json j = Json::parse("9007199254740993").value();  // 2^53 + 1
  ASSERT_TRUE(j.is_int());
  EXPECT_EQ(j.as_int(), 9007199254740993LL);
}

TEST(Json, NumberTypePromotion) {
  // as_int/as_double convert across the int/double divide.
  EXPECT_EQ(Json::parse("2.0").value().as_int(), 2);
  EXPECT_DOUBLE_EQ(Json::parse("7").value().as_double(), 7.0);
}

TEST(Json, StringEscapes) {
  const Json j = Json::parse(R"("a\"b\\c\nd\tA")").value();
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd\tA");
}

TEST(Json, NestedStructure) {
  const auto r = Json::parse(
      R"({"meta":{"n":3,"ok":true},"xs":[1,2.5,"three",null]})");
  ASSERT_TRUE(r.ok());
  const Json& j = r.value();
  EXPECT_TRUE(j.is_object());
  EXPECT_EQ(j["meta"]["n"].as_int(), 3);
  EXPECT_TRUE(j["meta"]["ok"].as_bool());
  ASSERT_EQ(j["xs"].size(), 4u);
  EXPECT_EQ(j["xs"].at(0).as_int(), 1);
  EXPECT_DOUBLE_EQ(j["xs"].at(1).as_double(), 2.5);
  EXPECT_EQ(j["xs"].at(2).as_string(), "three");
  EXPECT_TRUE(j["xs"].at(3).is_null());
}

TEST(Json, MissingLookupsChainToNull) {
  const Json j = Json::parse(R"({"a":{"b":1}})").value();
  EXPECT_TRUE(j["nope"].is_null());
  EXPECT_TRUE(j["nope"]["deeper"].is_null());
  EXPECT_EQ(j["nope"]["deeper"].as_int(), 0);
  EXPECT_FALSE(j.has("nope"));
  EXPECT_TRUE(j.has("a"));
  EXPECT_TRUE(j["a"].at(5).is_null());
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::parse("[]").value().size(), 0u);
  EXPECT_EQ(Json::parse("{}").value().size(), 0u);
  EXPECT_EQ(Json::parse("[ ]").value().size(), 0u);
  EXPECT_EQ(Json::parse("{ }").value().size(), 0u);
}

TEST(Json, WhitespaceTolerated) {
  const auto r = Json::parse("  { \"a\" : [ 1 , 2 ] }\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()["a"].size(), 2u);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("").ok());
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,]").ok());
  EXPECT_FALSE(Json::parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::parse("\"unterminated").ok());
  EXPECT_FALSE(Json::parse("tru").ok());
  EXPECT_FALSE(Json::parse("1 2").ok());
  EXPECT_FALSE(Json::parse("{'a':1}").ok());
  EXPECT_FALSE(Json::parse("1.2.3").ok());
}

TEST(Json, ErrorsCarryOffset) {
  const auto r = Json::parse("[1, oops]");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("offset"), std::string::npos);
}

TEST(Json, CopiesShareStorageCheaply) {
  const Json a = Json::parse(R"({"k":[1,2,3]})").value();
  const Json b = a;  // shallow copy
  EXPECT_EQ(b["k"].size(), 3u);
  EXPECT_EQ(&a["k"].as_array(), &b["k"].as_array());
}

TEST(JsonEscape, HandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

std::string render_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

TEST(JsonNumber, ShortestFormRoundTripsBitExact) {
  EXPECT_EQ(render_number(0.1), "0.1");
  EXPECT_EQ(render_number(1.5), "1.5");
  EXPECT_EQ(render_number(3.0), "3");

  std::vector<double> values = {5e-324, -0.0, 0.0, 1e300, -1e300, 1 / 3.0,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::epsilon()};
  std::mt19937_64 gen(20240517);
  while (values.size() < 10'000) {
    const std::uint64_t bits = gen();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) values.push_back(v);
  }
  for (const double v : values) {
    const std::string text = render_number(v);
    const double back = std::strtod(text.c_str(), nullptr);
    std::uint64_t want = 0, got = 0;
    std::memcpy(&want, &v, sizeof(v));
    std::memcpy(&got, &back, sizeof(back));
    EXPECT_EQ(got, want) << text;
    // And the text is valid JSON the repo's own reader accepts.
    ASSERT_TRUE(Json::parse(text).ok()) << text;
  }

  // JSON has no inf/nan; the writer must not emit an invalid token.
  EXPECT_EQ(render_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(render_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(render_number(std::nan("")), "null");
}

}  // namespace
}  // namespace mntp::core
