#include "core/json_writer.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

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

void JsonWriter::append_escaped_from(std::string_view s, std::size_t first) {
  // Copy each run of plain bytes whole; escape the rest one by one.
  std::size_t run = 0;
  for (std::size_t i = first; i < s.size(); ++i) {
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

void JsonWriter::too_deep() {
  std::fprintf(stderr, "JsonWriter: nesting deeper than %d levels\n",
               kMaxDepth);
  std::abort();
}

}  // namespace mntp::core
