// In-memory span ledger for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library's public API (one span per call site, named
// `<layer>.<call>`). A span's self time is its duration minus the time
// covered by its direct children, so the self times of every span in one
// repetition add up exactly to the root span's duration — the
// repetition's wall time. Calls too frequent to keep one record each (a
// per-packet Link::transmit) are "leaf" calls: they fold into a
// per-name count and total, and their time is charged to the innermost
// open span as child time.
//
// A parallel section records into one ledger per task and is folded back
// with absorb(): the section's wall time is charged to the names its
// tasks recorded, in proportion to each name's share of the tasks' summed
// self time, so the parts still add up to the wall time.
//
// A disabled ledger records nothing; every Scope is one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mntp::e2e {

class Ledger {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;  ///< index of the parent span, -1 for a root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;  ///< covered by direct children and leaves

    [[nodiscard]] std::int64_t self_ns() const {
      return end_ns - start_ns - child_ns;
    }
  };

  struct Leaf {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
  };

  /// Times one span for the lifetime of the scope.
  class Scope {
   public:
    Scope(Ledger& ledger, const char* name)
        : ledger_(ledger), index_(ledger.open(name)) {}
    ~Scope() { ledger_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger& ledger_;
    int index_;
  };

  explicit Ledger(bool enabled) : enabled_(enabled) {}
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Nanoseconds on the steady clock since the ledger was created.
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Stable per-name accumulator for leaf calls; resolve once, then pass
  /// to add_leaf on the hot path.
  Leaf& leaf(const char* name) { return leaves_[name]; }

  /// Charge one leaf call of `ns` to `slot` and to the innermost open span.
  void add_leaf(Leaf& slot, std::int64_t ns) {
    ++slot.count;
    slot.total_ns += ns;
    if (!stack_.empty()) spans_[static_cast<std::size_t>(stack_.back())].child_ns += ns;
  }

  /// Charge `wall_ns`, the wall time of a parallel section that just ran
  /// on the innermost open span's thread, to the names the section's
  /// per-task ledgers recorded (see the file comment).
  /// The task ledgers are kept and written out with this one.
  void absorb(std::vector<std::unique_ptr<Ledger>> tasks, std::int64_t wall_ns);

  /// Self seconds per name: span self times, leaf totals and the wall
  /// time charged by absorb().
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Inclusive seconds per span name, summed over absorbed tasks too (so
  /// busy seconds, not wall seconds, for a parallel section).
  [[nodiscard]] std::map<std::string, double> total_seconds() const;

  /// Write every span, leaf aggregate and absorbed charge, then each
  /// absorbed task's spans, as one JSON document tagged with `run_id`.
  /// Returns false on I/O failure.
  bool write_json(const std::string& path, const std::string& run_id) const;

 private:
  int open(const char* name);
  void close(int index);

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, Leaf> leaves_;
  std::map<std::string, std::int64_t> absorbed_ns_;
  std::vector<std::unique_ptr<Ledger>> tasks_;
};

}  // namespace mntp::e2e
