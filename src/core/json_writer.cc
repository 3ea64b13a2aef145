#include "core/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace mntp::core {

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no inf/nan
    return;
  }
  char buf[32];
  char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out.append(buf, end);
}

void JsonWriter::append_escaped(std::string_view s) {
  // Copy each run of plain bytes whole; escape the rest one by one.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\b':
        out_ += "\\b";
        break;
      case '\f':
        out_ += "\\f";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\r':
        out_ += "\\r";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      }
    }
  }
  out_.append(s.data() + run, s.size() - run);
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  element_prologue();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  element_prologue();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  return *this;
}

JsonWriter& JsonWriter::value_fixed(double v, int decimals) {
  element_prologue();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  out_ += buf;
  return *this;
}

void JsonWriter::element_prologue() {
  if (levels_.empty()) return;
  Level& top = levels_.back();
  if (top.in_object && top.key_pending) {
    // This element is the value for the pending key; no separator.
    top.key_pending = false;
    return;
  }
  if (!top.first) out_ += ',';
  top.first = false;
  if (indent_ > 0) {
    out_ += '\n';
    out_.append(static_cast<size_t>(indent_) * levels_.size(), ' ');
  }
}

void JsonWriter::close_level() {
  const bool was_empty = levels_.back().first;
  levels_.pop_back();
  if (indent_ > 0 && !was_empty) {
    out_ += '\n';
    out_.append(static_cast<size_t>(indent_) * levels_.size(), ' ');
  }
}

}  // namespace mntp::core
