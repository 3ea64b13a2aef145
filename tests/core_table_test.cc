#include "core/table.h"

#include <gtest/gtest.h>

#include "core/units.h"

namespace mntp::core {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  // Header underline present.
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Format, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(-0.5, 1), "-0.5");
}

TEST(Format, FmtInt) { EXPECT_EQ(fmt_int(-42), "-42"); }

TEST(Format, FmtCountThousandsSeparators) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(9'988'576), "9,988,576");
  EXPECT_EQ(fmt_count(209'447'922), "209,447,922");
}

TEST(AsciiPlot, EmptySeries) {
  const Series s{.label = "empty", .points = {}};
  EXPECT_NE(ascii_plot({&s, 1}).find("(no data)"), std::string::npos);
}

TEST(AsciiPlot, PlotsMarkersAndLegend) {
  Series s{.label = "ramp", .points = {{0, 0}, {1, 1}, {2, 2}}, .marker = '#'};
  const std::string out = ascii_plot({&s, 1}, 40, 10, "title");
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find("ramp"), std::string::npos);
}

TEST(AsciiPlot, MultipleSeriesAllListed) {
  std::vector<Series> ss{
      {.label = "a", .points = {{0, 0}, {1, 1}}, .marker = 'a'},
      {.label = "b", .points = {{0, 1}, {1, 0}}, .marker = 'b'},
  };
  const std::string out = ascii_plot(ss, 40, 8);
  EXPECT_NE(out.find("(a) a"), std::string::npos);
  EXPECT_NE(out.find("(b) b"), std::string::npos);
}

TEST(Units, DecibelArithmetic) {
  const Dbm rssi{-65.0};
  const Dbm noise{-92.0};
  const Decibels snr = rssi - noise;
  EXPECT_DOUBLE_EQ(snr.value(), 27.0);
  EXPECT_DOUBLE_EQ((rssi + Decibels{3.0}).value(), -62.0);
  EXPECT_DOUBLE_EQ((rssi - Decibels{3.0}).value(), -68.0);
  EXPECT_LT(Dbm{-80.0}, Dbm{-70.0});
}

TEST(Units, Literals) {
  EXPECT_DOUBLE_EQ((75.0_dBm).value(), 75.0);
  EXPECT_DOUBLE_EQ((20_dB).value(), 20.0);
  EXPECT_DOUBLE_EQ((0_dBm - 75.0_dB).value(), -75.0);
}

}  // namespace
}  // namespace mntp::core
