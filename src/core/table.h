// Plain-text table and series rendering for bench output.
//
// Every bench binary regenerates a table or figure from the paper; these
// helpers print aligned tables (Table 1, Table 2) and ASCII time-series /
// CDF plots (the figures) so the "shape" of a result is visible directly
// in terminal output.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace mntp::core {

/// Column-aligned text table with a header row.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append a data row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Render with single-space-padded columns and a rule under the header.
  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Numeric formatting helpers used when filling tables.
[[nodiscard]] std::string fmt_double(double v, int precision = 2);
[[nodiscard]] std::string fmt_int(long long v);
/// Format with thousands separators, e.g. 9,988,576 (Table 1 style).
[[nodiscard]] std::string fmt_count(unsigned long long v);

/// A labeled series of (x, y) points for ASCII plotting.
struct Series {
  std::string label;
  std::vector<std::pair<double, double>> points;
  char marker = '*';
};

/// Render one or more series into a character grid: x mapped across
/// `width` columns, y across `height` rows, with axis annotations giving
/// the data ranges. Later series draw over earlier ones.
[[nodiscard]] std::string ascii_plot(std::span<const Series> series,
                                     std::size_t width = 78,
                                     std::size_t height = 20,
                                     const std::string& title = {});

}  // namespace mntp::core
