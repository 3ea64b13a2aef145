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
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mntp::core {

/// Append `v` rendered as a JSON number: the shortest round-trip form
/// for finite values, `null` for inf/nan.
void append_json_number(std::string& out, double v);

class JsonWriter {
 public:
  /// Appends to `out`; `indent` > 0 pretty-prints with that many spaces
  /// per nesting level, 0 emits the compact single-line form.
  explicit JsonWriter(std::string& out, int indent = 0)
      : out_(out), indent_(indent) {}

  JsonWriter& begin_object() {
    element_prologue();
    out_ += '{';
    levels_.push_back(Level{.in_object = true, .first = true});
    return *this;
  }
  JsonWriter& end_object() {
    assert(!levels_.empty() && levels_.back().in_object);
    close_level();
    out_ += '}';
    return *this;
  }
  JsonWriter& begin_array() {
    element_prologue();
    out_ += '[';
    levels_.push_back(Level{.in_object = false, .first = true});
    return *this;
  }
  JsonWriter& end_array() {
    assert(!levels_.empty() && !levels_.back().in_object);
    close_level();
    out_ += ']';
    return *this;
  }

  /// Member key; must be followed by exactly one value (or container).
  JsonWriter& key(std::string_view k) {
    assert(!levels_.empty() && levels_.back().in_object &&
           !levels_.back().key_pending);
    element_prologue();
    out_ += '"';
    append_escaped(k);
    out_ += indent_ > 0 ? "\": " : "\":";
    levels_.back().key_pending = true;
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
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
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

  /// Appends `s` with JSON string escaping (quotes, backslashes, control
  /// characters; non-ASCII passes through as UTF-8), straight into out_.
  void append_escaped(std::string_view s);
  /// Comma / newline / indentation before a key or a top-level value.
  void element_prologue();
  /// Newline + dedent before the closing bracket of a non-empty level.
  void close_level();

  std::string& out_;
  int indent_;
  std::vector<Level> levels_;
};

}  // namespace mntp::core
