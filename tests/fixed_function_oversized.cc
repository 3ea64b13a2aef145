// Compile-only fixture: a capture larger than FixedFunction's inline
// buffer must not compile (the static_assert in emplace). Built with
// -DMNTP_FITS the capture shrinks to fit, and the file must compile, so
// the check fails for the buffer and for nothing else. CTest
// fixed_function_oversized_rejected compiles it both ways.
#include <array>
#include <cstdint>

#include "core/fixed_function.h"

#ifdef MNTP_FITS
constexpr std::size_t kWords = 4;   // 32 bytes: fits the 48-byte buffer
#else
constexpr std::size_t kWords = 16;  // 128 bytes: does not
#endif

int main() {
  std::array<std::uint64_t, kWords> capture{};
  mntp::core::FixedFunction<std::uint64_t()> fn(
      [capture] { return capture[0]; });
  return static_cast<int>(fn());
}
