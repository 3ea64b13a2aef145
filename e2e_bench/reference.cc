#include "reference.h"

#include <sys/mman.h>

#include <cmath>
#include <cstdint>
#include <new>
#include <thread>
#include <vector>

#include "workloads.h"

namespace mntp::e2e {

namespace {

// 16 MiB: past the private caches and the TLB's reach.
constexpr std::size_t kTableSize = std::size_t{1} << 22;
constexpr std::size_t kSteps = 400'000;

std::uint64_t mix(std::uint64_t x) {  // the splitmix64 finaliser
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The walk's table, mapped for one reference run and unmapped after it,
/// so that its pages leave the process's resident set (heap memory
/// would stay).
class Table {
 public:
  Table() {
    void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<std::uint32_t*>(p);
    for (std::size_t i = 0; i < kTableSize; ++i) {
      data_[i] = static_cast<std::uint32_t>(mix(i) & (kTableSize - 1));
    }
  }
  ~Table() { munmap(data_, kBytes); }
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  std::uint32_t operator[](std::size_t i) const { return data_[i]; }

 private:
  static constexpr std::size_t kBytes = kTableSize * sizeof(std::uint32_t);
  std::uint32_t* data_ = nullptr;
};

/// Each step's load depends on the one before, as the simulator's event
/// and RNG chains do.
double walk(const Table& t, std::uint64_t seed) {
  std::uint64_t h = seed;
  std::uint32_t idx = 0;
  double acc = 0.0;
  for (std::size_t i = 0; i < kSteps; ++i) {
    h = mix(h + idx);
    idx = t[(idx ^ h) & (kTableSize - 1)];
    acc = 0.999 * acc + std::log1p(static_cast<double>(h >> 11) * 0x1p-53) *
                            std::sqrt(static_cast<double>(idx));
  }
  return acc;
}

}  // namespace

/// Keeps the walks' results alive so the compiler cannot drop them.
volatile double g_reference_sink = 0.0;

double reference_cpu_s(std::size_t threads) {
  const Table table;  // filled outside the timing
  std::vector<double> cpu(threads);
  std::vector<double> result(threads);
  std::vector<std::thread> pool;
  for (std::size_t k = 0; k < threads; ++k) {
    pool.emplace_back([&table, &cpu, &result, k] {
      const double t0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
      result[k] = walk(table, k + 1);
      cpu[k] = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - t0;
    });
  }
  for (std::thread& t : pool) t.join();
  double sum = 0.0;
  for (std::size_t k = 0; k < threads; ++k) {
    g_reference_sink = g_reference_sink + result[k];
    sum += cpu[k];
  }
  return sum / static_cast<double>(threads);
}

}  // namespace mntp::e2e
