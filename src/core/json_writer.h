// Shared JSON emission: escaping, nesting, numeric formatting.
//
// Every observability artifact in this repo is JSON written by hand on a
// hot(ish) path — run reports (obs/report.cc), Chrome trace profiles
// (obs/profiler.cc), perf-suite baselines (bench/perf_suite.cc), query
// traces (obs/query_trace.cc), timelines (obs/timeseries.cc) and diff
// records (obs/diff.cc). JsonWriter is the single implementation of
// string escaping and number rendering they all append through.
//
// The writer targets an append-only std::string (the callers' existing
// idiom: build one line/object, then stream it), tracks nesting and
// comma placement itself, and renders numbers the way the readers
// expect: finite doubles as the shortest string that round-trips
// bit-exact through strtod (std::to_chars), non-finite mapped to null
// (JSON has no inf/nan), integers exactly.
// With `indent > 0` it pretty-prints (newline + indentation per
// element) for human-facing artifacts like BENCH_results.json.
//
// It is a serializer, not a validator: keys outside objects or
// mismatched end_*() calls are caller bugs (asserted in debug builds).
//
// The writer is built once per line on the query-trace export path, so
// it allocates nothing of its own: the nesting stack is a fixed array of
// kMaxDepth levels with a depth counter. Opening one level more stops the
// program in every build type (a caller bug, never a clipped document).
// Punctuation, indentation and strings with nothing to escape are
// header-inline; only strings that need escaping take the out-of-line
// path.
#pragma once

#include <array>
#include <cassert>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace mntp::core {

/// Append `v` rendered as a JSON number: the shortest round-trip form
/// for finite values, `null` for inf/nan.
void append_json_number(std::string& out, double v);

class JsonWriter {
 public:
  /// Deepest nesting of objects and arrays a document may have.
  static constexpr int kMaxDepth = 16;

  /// Appends to `out`; `indent` > 0 pretty-prints with that many spaces
  /// per nesting level, 0 emits the compact single-line form.
  explicit JsonWriter(std::string& out, int indent = 0)
      : out_(out), indent_(indent) {}

  JsonWriter& begin_object() { return open_level('{', true); }
  JsonWriter& end_object() {
    assert(depth_ > 0 && levels_[depth_ - 1].in_object);
    return close_level('}');
  }
  JsonWriter& begin_array() { return open_level('[', false); }
  JsonWriter& end_array() {
    assert(depth_ > 0 && !levels_[depth_ - 1].in_object);
    return close_level(']');
  }

  /// Member key; must be followed by exactly one value (or container).
  JsonWriter& key(std::string_view k) {
    assert(depth_ > 0 && levels_[depth_ - 1].in_object &&
           !levels_[depth_ - 1].key_pending);
    element_prologue();
    out_ += '"';
    append_escaped(k);
    out_ += indent_ > 0 ? "\": " : "\":";
    levels_[depth_ - 1].key_pending = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) {
    element_prologue();
    out_ += '"';
    append_escaped(v);
    out_ += '"';
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v) {
    element_prologue();
    append_json_number(out_, v);
    return *this;
  }
  JsonWriter& value(std::int64_t v) { return integer(v); }
  JsonWriter& value(std::uint64_t v) { return integer(v); }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v) {
    element_prologue();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& null() {
    element_prologue();
    out_ += "null";
    return *this;
  }
  /// Fixed-decimal number (e.g. microsecond fields rendered "%.3f").
  JsonWriter& value_fixed(double v, int decimals);

  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

 private:
  struct Level {
    bool in_object = false;
    bool first = true;
    bool key_pending = false;
  };

  template <typename Int>
  JsonWriter& integer(Int v) {
    element_prologue();
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    return *this;
  }

  JsonWriter& open_level(char bracket, bool in_object) {
    element_prologue();
    if (depth_ == kMaxDepth) [[unlikely]] too_deep();
    out_ += bracket;
    levels_[depth_++] = Level{.in_object = in_object};
    return *this;
  }

  /// Newline + dedent before the closing bracket of a non-empty level.
  JsonWriter& close_level(char bracket) {
    const bool was_empty = levels_[--depth_].first;
    if (indent_ > 0 && !was_empty) newline_indent();
    out_ += bracket;
    return *this;
  }

  /// Comma / newline / indentation before a key or a top-level value.
  void element_prologue() {
    if (depth_ == 0) return;
    Level& top = levels_[depth_ - 1];
    if (top.key_pending) {
      // This element is the value for the pending key; no separator.
      top.key_pending = false;
      return;
    }
    if (!top.first) out_ += ',';
    top.first = false;
    if (indent_ > 0) newline_indent();
  }

  void newline_indent() {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_) * depth_, ' ');
  }

  /// Appends `s` with JSON string escaping (quotes, backslashes, control
  /// characters; non-ASCII passes through as UTF-8), straight into out_.
  /// A string with nothing to escape is one append.
  void append_escaped(std::string_view s) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto c = static_cast<unsigned char>(s[i]);
      if (c < 0x20 || c == '"' || c == '\\') [[unlikely]] {
        append_escaped_from(s, i);
        return;
      }
    }
    out_.append(s);
  }
  /// The escaping path: `s[first]` is the first byte that needs it.
  void append_escaped_from(std::string_view s, std::size_t first);
  [[noreturn]] static void too_deep();

  std::string& out_;
  int indent_;
  int depth_ = 0;
  std::array<Level, kMaxDepth> levels_;
};

}  // namespace mntp::core
