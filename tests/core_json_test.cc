#include "core/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <string_view>
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

TEST(Json, Uint64IntegersStayExactAndCastsClamp) {
  // The writers emit uint64 (seeds): those parse exactly, and as_int()
  // clamps instead of overflowing.
  const Json big = Json::parse("18446744073709551615").value();
  ASSERT_TRUE(big.is_int());
  EXPECT_EQ(big.as_uint(), 18446744073709551615ULL);
  EXPECT_EQ(big.as_int(), std::numeric_limits<std::int64_t>::max());
  EXPECT_DOUBLE_EQ(big.as_double(), 1.8446744073709552e19);
  EXPECT_EQ(Json::parse("-5").value().as_uint(), 0u);
  EXPECT_FALSE(Json::parse("-18446744073709551615").value().is_int());
  EXPECT_EQ(Json::parse("1e300").value().as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(Json::parse("-1e300").value().as_int(),
            std::numeric_limits<std::int64_t>::min());
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

/// `s` as the writer renders it: a quoted, escaped JSON string.
std::string render_string(std::string_view s) {
  std::string out;
  JsonWriter(out).value(s);
  return out;
}

TEST(JsonEscape, HandlesSpecials) {
  EXPECT_EQ(render_string("plain"), "\"plain\"");
  EXPECT_EQ(render_string("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(render_string("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(render_string("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(render_string(std::string("\x01", 1)), "\"\\u0001\"");
  EXPECT_EQ(render_string(std::string("x\0y\x1f\r\b\f", 7)),
            "\"x\\u0000y\\u001f\\r\\b\\f\"");
  // Keys take the same escaping.
  std::string obj;
  JsonWriter(obj).begin_object().kv("q\"k", "\\").end_object();
  EXPECT_EQ(obj, "{\"q\\\"k\":\"\\\\\"}");
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


// ------------------------------------------------------------ golden bytes
// The exact bytes every artifact is built from, recorded before the
// writer's nesting stack became a fixed array: compact and pretty forms,
// nested and empty containers, escaped keys and values, fixed-decimal
// and non-finite numbers.

void write_golden_document(JsonWriter& w) {
  const double inf = std::numeric_limits<double>::infinity();
  w.begin_object()
      .kv("name", "mntp")
      .kv("int", std::int64_t{-42})
      .kv("uint", std::numeric_limits<std::uint64_t>::max())
      .kv("small", 7)
      .kv("pi", 3.141592653589793)
      .kv("tenth", 0.1)
      .kv("inf", inf)
      .kv("nan", std::nan(""))
      .key("fixed").value_fixed(1.23456, 3)
      .key("fixed_neg").value_fixed(-0.5, 0)
      .key("fixed_inf").value_fixed(-inf, 2)
      .kv("yes", true)
      .kv("no", false)
      .key("nothing").null()
      .kv("esc\"key\n",
          std::string_view("tab\there \"q\" \\ \x01 \xc3\xa9 \x7f", 21))
      .key("empty_obj").begin_object().end_object()
      .key("empty_arr").begin_array().end_array()
      .key("nested").begin_array()
        .value(1.5)
        .begin_object()
          .kv("a", std::int64_t{1})
          .key("b").begin_array().value("x").begin_array().end_array()
          .end_array()
        .end_object()
        .begin_array().begin_object().end_object().end_array()
      .end_array()
      .end_object();
}

std::string golden_document(int indent) {
  std::string out;
  JsonWriter w(out, indent);
  write_golden_document(w);
  return out;
}

TEST(JsonWriterGolden, Compact) {
  EXPECT_EQ(golden_document(0),
            "{\"name\":\"mntp\",\"int\":-42,\"uint\":18446744073709551615,"
            "\"small\":7,\"pi\":3.141592653589793,\"tenth\":0.1,"
            "\"inf\":null,\"nan\":null,\"fixed\":1.235,\"fixed_neg\":-0,"
            "\"fixed_inf\":null,\"yes\":true,\"no\":false,\"nothing\":null,"
            "\"esc\\\"key\\n\":\"tab\\there \\\"q\\\" \\\\ \\u0001 \xc3\xa9 \x7f\","
            "\"empty_obj\":{},\"empty_arr\":[],\"nested\":[1.5,{\"a\":1,"
            "\"b\":[\"x\",[]]},[{}]]}");
}

TEST(JsonWriterGolden, IndentOne) {
  EXPECT_EQ(golden_document(1),
            "{\n"
            " \"name\": \"mntp\",\n"
            " \"int\": -42,\n"
            " \"uint\": 18446744073709551615,\n"
            " \"small\": 7,\n"
            " \"pi\": 3.141592653589793,\n"
            " \"tenth\": 0.1,\n"
            " \"inf\": null,\n"
            " \"nan\": null,\n"
            " \"fixed\": 1.235,\n"
            " \"fixed_neg\": -0,\n"
            " \"fixed_inf\": null,\n"
            " \"yes\": true,\n"
            " \"no\": false,\n"
            " \"nothing\": null,\n"
            " \"esc\\\"key\\n\": \"tab\\there \\\"q\\\" \\\\ \\u0001 \xc3\xa9 \x7f\",\n"
            " \"empty_obj\": {},\n"
            " \"empty_arr\": [],\n"
            " \"nested\": [\n"
            "  1.5,\n"
            "  {\n"
            "   \"a\": 1,\n"
            "   \"b\": [\n"
            "    \"x\",\n"
            "    []\n"
            "   ]\n"
            "  },\n"
            "  [\n"
            "   {}\n"
            "  ]\n"
            " ]\n"
            "}");
}

TEST(JsonWriterGolden, IndentTwo) {
  EXPECT_EQ(golden_document(2),
            "{\n"
            "  \"name\": \"mntp\",\n"
            "  \"int\": -42,\n"
            "  \"uint\": 18446744073709551615,\n"
            "  \"small\": 7,\n"
            "  \"pi\": 3.141592653589793,\n"
            "  \"tenth\": 0.1,\n"
            "  \"inf\": null,\n"
            "  \"nan\": null,\n"
            "  \"fixed\": 1.235,\n"
            "  \"fixed_neg\": -0,\n"
            "  \"fixed_inf\": null,\n"
            "  \"yes\": true,\n"
            "  \"no\": false,\n"
            "  \"nothing\": null,\n"
            "  \"esc\\\"key\\n\": \"tab\\there \\\"q\\\" \\\\ \\u0001 \xc3\xa9 \x7f\",\n"
            "  \"empty_obj\": {},\n"
            "  \"empty_arr\": [],\n"
            "  \"nested\": [\n"
            "    1.5,\n"
            "    {\n"
            "      \"a\": 1,\n"
            "      \"b\": [\n"
            "        \"x\",\n"
            "        []\n"
            "      ]\n"
            "    },\n"
            "    [\n"
            "      {}\n"
            "    ]\n"
            "  ]\n"
            "}");
}

/// `depth` levels, alternating array and object, around the value 1.
std::string deep_document(int depth, int indent) {
  std::string out;
  JsonWriter w(out, indent);
  for (int i = 0; i < depth; ++i) {
    if (i % 2 == 0) {
      w.begin_array();
    } else {
      w.begin_object().key("k");
    }
  }
  w.value(std::int64_t{1});
  for (int i = depth - 1; i >= 0; --i) {
    if (i % 2 == 0) {
      w.end_array();
    } else {
      w.end_object();
    }
  }
  return out;
}

TEST(JsonWriterGolden, MaximumDepth) {
  static_assert(JsonWriter::kMaxDepth == 16);
  EXPECT_EQ(deep_document(JsonWriter::kMaxDepth, 0),
            "[{\"k\":[{\"k\":[{\"k\":[{\"k\":[{\"k\":[{\"k\":[{\"k\":"
            "[{\"k\":1}]}]}]}]}]}]}]}]");
  EXPECT_EQ(deep_document(JsonWriter::kMaxDepth, 1),
            "[\n"
            " {\n"
            "  \"k\": [\n"
            "   {\n"
            "    \"k\": [\n"
            "     {\n"
            "      \"k\": [\n"
            "       {\n"
            "        \"k\": [\n"
            "         {\n"
            "          \"k\": [\n"
            "           {\n"
            "            \"k\": [\n"
            "             {\n"
            "              \"k\": [\n"
            "               {\n"
            "                \"k\": 1\n"
            "               }\n"
            "              ]\n"
            "             }\n"
            "            ]\n"
            "           }\n"
            "          ]\n"
            "         }\n"
            "        ]\n"
            "       }\n"
            "      ]\n"
            "     }\n"
            "    ]\n"
            "   }\n"
            "  ]\n"
            " }\n"
            "]");
}

TEST(JsonWriterGoldenDeathTest, DeeperThanTheLimitAborts) {
  // The nesting stack is a fixed array: one level more is a caller bug
  // that stops the program, in every build type, instead of a clipped
  // or corrupt document.
  EXPECT_DEATH(deep_document(JsonWriter::kMaxDepth + 1, 0),
               "JsonWriter: nesting deeper than");
}

}  // namespace
}  // namespace mntp::core
