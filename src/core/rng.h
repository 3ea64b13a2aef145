// Deterministic random number generation facade.
//
// Every stochastic component in the library (channel fading, cross-traffic
// arrivals, oscillator wander, server jitter, log synthesis) draws from an
// explicitly seeded `Rng`. There is no global RNG and no entropy source:
// given the same seeds, every experiment reproduces bit-identically.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

namespace mntp::core {

/// splitmix64 finalizer (Vigna): a single avalanching mix step. Used to
/// derive statistically independent seeds from structured inputs like
/// (base_seed, replicate_index) — sequential indices land far apart.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The stream-derivation rule: seed for stream `stream` of a subsystem
/// rooted at `base`. Adjacent stream indices land in statistically
/// unrelated parts of seed space (golden-ratio stride through the
/// splitmix64 finalizer), so a component can mint any number of
/// independent child streams without coordinating with its siblings.
/// `sim::replicate_seed` is the special case replicate 0 ↦ base,
/// replicate r>0 ↦ derive_stream_seed(base, r-1).
[[nodiscard]] constexpr std::uint64_t derive_stream_seed(std::uint64_t base,
                                                         std::uint64_t stream) {
  return splitmix64(base + stream * 0x9E3779B97F4A7C15ull);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derive an independent child generator; used to give each subsystem
  /// its own stream so adding draws in one subsystem does not perturb
  /// another (important for experiment comparability across variants).
  [[nodiscard]] Rng fork() { return Rng{engine_()}; }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  /// Index uniform in [0, n). Requires n > 0.
  [[nodiscard]] std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Gaussian with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }

  /// Exponential with the given mean (not rate).
  [[nodiscard]] double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }

  /// Bernoulli trial.
  [[nodiscard]] bool bernoulli(double p) {
    return std::bernoulli_distribution{p}(engine_);
  }

  /// Log-normal parameterized by the mean/stddev of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
  }

  /// Smallest uniform variate `pareto` will raise to a negative power.
  /// Inverse-transform sampling computes xm * u^(-1/alpha); without a
  /// floor, a pathological near-zero u yields astronomically large
  /// values that rely solely on downstream caps. 2^-53 is one ulp of
  /// canonical [0,1) doubles, so the clamp binds with probability
  /// ~2^-53 per draw while guaranteeing a hard tail bound.
  static constexpr double kParetoMinU = 0x1p-53;

  /// Pareto with scale xm > 0 and shape alpha > 0 (heavy-tailed delays).
  /// Bounds convention: results lie in [xm, xm * 2^(53/alpha)] — the
  /// underlying uniform is clamped to [kParetoMinU, 1.0), so the heavy
  /// tail is hard-capped independent of any downstream min().
  [[nodiscard]] double pareto(double xm, double alpha) {
    const double u = std::max(uniform(0.0, 1.0), kParetoMinU);
    return xm / std::pow(u, 1.0 / alpha);
  }

  /// Raw 64-bit draw (for deriving sub-seeds).
  [[nodiscard]] std::uint64_t next_u64() { return engine_(); }

  // --- Fast inline paths -------------------------------------------------
  //
  // The std::*_distribution wrappers above construct a distribution
  // object per call and their draw sequences are libstdc++
  // implementation details. The `_fast` variants below are
  // self-contained, draw-count documented, and cheap to inline — but
  // they consume the engine differently, so they are NOT drop-in
  // replacements on an existing stream: switching a call site changes
  // every downstream result. Use them for new code and for opt-in
  // model variants.

  /// Canonical uniform in [0,1): top 53 bits of exactly one engine
  /// draw.
  [[nodiscard]] double canonical() {
    return static_cast<double>(engine_() >> 11) * 0x1p-53;
  }

  /// Gaussian via the Marsaglia polar method with the spare deviate
  /// cached: amortized ~1.27 engine-draw pairs per two results, no
  /// transcendental calls beyond one log+sqrt per pair.
  [[nodiscard]] double normal_fast(double mean, double stddev) {
    if (have_spare_) {
      have_spare_ = false;
      return mean + stddev * spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * canonical() - 1.0;
      v = 2.0 * canonical() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    have_spare_ = true;
    return mean + stddev * u * m;
  }

  /// Batch-fill `out` with independent normal_fast draws — hot loops
  /// that consume deviates in blocks amortize the call overhead and the
  /// polar method's pair structure.
  void fill_normal(std::span<double> out, double mean, double stddev) {
    for (double& x : out) x = normal_fast(mean, stddev);
  }

 private:
  std::mt19937_64 engine_;
  double spare_ = 0.0;       // cached second polar deviate
  bool have_spare_ = false;  // normal_fast spare validity
};

/// Counter-based mini generator: the stream-derivation rule turned into
/// a sequence. Draw k is exactly `derive_stream_seed(seed, k)`, so a
/// SmallRng is pure state-free arithmetic — two 64-bit multiplies and a
/// mix per draw, no warm-up, trivially constructible per (entity, event)
/// pair. That is the property the fleet layer is built on: every
/// simulated query owns the stream `SmallRng(derive_stream_seed(
/// client_seed, query_key))`, which makes each query's randomness a pure
/// function of seeds — independent of shard partitioning, thread
/// scheduling, and every other client's activity. An mt19937_64 is the
/// wrong tool there (2.5 KB of state and a ~312-word init per query);
/// splitmix64 passes BigCrush and costs nothing to seed.
///
/// canonical() and normal() mirror Rng::canonical and Rng::normal_fast
/// (same math, same draw-count documentation); they are NOT
/// stream-compatible with Rng — different engine, different
/// realizations, same distributions.
class SmallRng {
 public:
  explicit constexpr SmallRng(std::uint64_t seed) : seed_(seed) {}

  /// Draw k of the stream: derive_stream_seed(seed, k), k = 0, 1, ...
  [[nodiscard]] constexpr std::uint64_t next_u64() {
    return derive_stream_seed(seed_, counter_++);
  }

  /// Canonical uniform in [0,1): top 53 bits of one draw.
  [[nodiscard]] double canonical() {
    return static_cast<double>(next_u64() >> 11) * 0x1p-53;
  }

  /// Bernoulli trial via one canonical draw.
  [[nodiscard]] bool bernoulli(double p) { return canonical() < p; }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * canonical();
  }

  /// Exponential with the given mean by inverse transform; one draw.
  /// log1p(-u) keeps precision for small u and is finite for all u in
  /// [0,1).
  [[nodiscard]] double exponential(double mean) {
    return -mean * std::log1p(-canonical());
  }

  /// Gaussian via the Marsaglia polar method with the spare cached
  /// (cf. Rng::normal_fast).
  [[nodiscard]] double normal(double mean, double stddev) {
    if (have_spare_) {
      have_spare_ = false;
      return mean + stddev * spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * canonical() - 1.0;
      v = 2.0 * canonical() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    have_spare_ = true;
    return mean + stddev * u * m;
  }

  /// Pareto with the same tail clamp as Rng::pareto (kParetoMinU floor).
  [[nodiscard]] double pareto(double xm, double alpha) {
    const double u = std::max(canonical(), Rng::kParetoMinU);
    return xm / std::pow(u, 1.0 / alpha);
  }

 private:
  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
  double spare_ = 0.0;
  bool have_spare_ = false;
};

}  // namespace mntp::core
