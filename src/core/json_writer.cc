#include "core/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace mntp::core {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no inf/nan
    return;
  }
  char buf[32];
  char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out.append(buf, end);
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
