#include "core/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace mntp::core {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("TextTable: empty header");
}

void TextTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("TextTable: row arity mismatch");
  }
  rows_.push_back(std::move(row));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << row[c];
      if (c + 1 < row.size()) {
        out << std::string(widths[c] - row[c].size() + 2, ' ');
      }
    }
    out << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_int(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

std::string fmt_count(unsigned long long v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string ascii_plot(std::span<const Series> series, std::size_t width,
                       std::size_t height, const std::string& title) {
  std::ostringstream out;
  if (!title.empty()) out << title << '\n';

  double xmin = std::numeric_limits<double>::infinity();
  double xmax = -std::numeric_limits<double>::infinity();
  double ymin = std::numeric_limits<double>::infinity();
  double ymax = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (const auto& s : series) {
    for (const auto& [x, y] : s.points) {
      xmin = std::min(xmin, x);
      xmax = std::max(xmax, x);
      ymin = std::min(ymin, y);
      ymax = std::max(ymax, y);
      any = true;
    }
  }
  if (!any) {
    out << "(no data)\n";
    return out.str();
  }
  if (xmax <= xmin) xmax = xmin + 1.0;
  if (ymax <= ymin) ymax = ymin + 1.0;

  std::vector<std::string> grid(height, std::string(width, ' '));
  for (const auto& s : series) {
    for (const auto& [x, y] : s.points) {
      auto col = static_cast<std::size_t>(
          (x - xmin) / (xmax - xmin) * static_cast<double>(width - 1) + 0.5);
      auto row = static_cast<std::size_t>(
          (y - ymin) / (ymax - ymin) * static_cast<double>(height - 1) + 0.5);
      col = std::min(col, width - 1);
      row = std::min(row, height - 1);
      grid[height - 1 - row][col] = s.marker;
    }
  }

  char label[64];
  std::snprintf(label, sizeof label, "%.4g", ymax);
  out << label << '\n';
  for (const auto& line : grid) out << '|' << line << '\n';
  std::snprintf(label, sizeof label, "%.4g", ymin);
  out << label << ' ';
  out << std::string(width > 20 ? width - 20 : 1, '-');
  std::snprintf(label, sizeof label, " x:[%.4g, %.4g]", xmin, xmax);
  out << label << '\n';
  for (const auto& s : series) {
    out << "  (" << s.marker << ") " << s.label << '\n';
  }
  return out.str();
}

}  // namespace mntp::core
