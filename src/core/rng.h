// Deterministic random number generation: the library's one engine.
//
// Every stochastic component in the library (channel fading, cross-traffic
// arrivals, oscillator wander, server jitter, log synthesis, the fleet's
// per-query draws) draws from an explicitly seeded `Rng`. There is no
// global RNG and no entropy source: given the same seeds, every
// experiment reproduces bit-identically.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

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

/// Counter-based generator: the stream-derivation rule turned into a
/// sequence. Draw k of `Rng(seed)` is exactly `derive_stream_seed(seed,
/// k)` — two 64-bit multiplies and a mix per draw, 32 bytes of state, no
/// warm-up — so one can be built per (entity, event) pair: the fleet
/// gives every simulated query its own `Rng(derive_stream_seed(
/// client_seed, query_key))`, which makes each query's randomness a pure
/// function of seeds. splitmix64 passes BigCrush.
///
/// Draw discipline (what each call consumes from the stream):
///   canonical, uniform, bernoulli, exponential, pareto — one draw;
///   uniform_int, index — one draw, plus a redraw on Lemire's rejection
///     (probability < range / 2^64);
///   normal, lognormal — Marsaglia polar: a pair of draws per attempt
///     (~1.27 attempts per accepted pair), and each accepted pair yields
///     two deviates: the second is cached and returned, with no draw, by
///     the next normal() or lognormal() call.
class Rng {
 public:
  explicit constexpr Rng(std::uint64_t seed) : seed_(seed) {}

  /// Draw k of the stream: derive_stream_seed(seed, k), k = 0, 1, ...
  [[nodiscard]] constexpr std::uint64_t next_u64() {
    return derive_stream_seed(seed_, counter_++);
  }

  /// Derive an independent child generator; used to give each subsystem
  /// its own stream so adding draws in one subsystem does not perturb
  /// another (important for experiment comparability across variants).
  /// The child seed is salted: an unsalted `Rng{next_u64()}` would make
  /// child k's seed equal `sim::replicate_seed(seed, k + 1)`, so a
  /// replicate's sub-stream would be the next replicate's root stream.
  [[nodiscard]] Rng fork() { return Rng{splitmix64(next_u64() ^ kForkSalt)}; }

  /// Canonical uniform in [0,1): top 53 bits of one draw.
  [[nodiscard]] double canonical() {
    return static_cast<double>(next_u64() >> 11) * 0x1p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * canonical();
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    const std::uint64_t offset = range == 0 ? next_u64() : bounded(range);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
  }

  /// Index uniform in [0, n). Requires n > 0.
  [[nodiscard]] std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(bounded(n));
  }

  /// Gaussian with the given mean and standard deviation.
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

  /// Exponential with the given mean (not rate), by inverse transform.
  /// log1p(-u) keeps precision for small u and is finite for all u in
  /// [0,1).
  [[nodiscard]] double exponential(double mean) {
    return -mean * std::log1p(-canonical());
  }

  /// Bernoulli trial.
  [[nodiscard]] bool bernoulli(double p) { return canonical() < p; }

  /// Log-normal parameterized by the mean/stddev of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
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
    const double u = std::max(canonical(), kParetoMinU);
    return xm / std::pow(u, 1.0 / alpha);
  }

 private:
  static constexpr std::uint64_t kForkSalt = 0xD1B54A32D192ED03ull;

  /// Exactly uniform in [0, range), range > 0: Lemire's multiply-shift
  /// with the rejection step that removes its bias.
  [[nodiscard]] std::uint64_t bounded(std::uint64_t range) {
    unsigned __int128 m =
        static_cast<unsigned __int128>(next_u64()) * range;
    if (static_cast<std::uint64_t>(m) < range) {
      const std::uint64_t threshold = (0 - range) % range;
      while (static_cast<std::uint64_t>(m) < threshold) {
        m = static_cast<unsigned __int128>(next_u64()) * range;
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
  double spare_ = 0.0;       // cached second polar deviate
  bool have_spare_ = false;  // spare_ validity
};

}  // namespace mntp::core
