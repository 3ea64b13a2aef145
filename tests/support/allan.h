// Allan deviation: the standard characterization of oscillator stability.
// Test support: no shipped binary needs it, so it lives under tests/.
//
// The clock models in this library claim specific noise types — white
// phase noise on readings, random-walk frequency modulation (wander), a
// constant skew. Allan deviation is how the timing community verifies
// such claims: each noise type produces a characteristic slope on the
// sigma-tau log-log plot (white PM ~ tau^-1, white FM ~ tau^-1/2,
// random-walk FM ~ tau^+1/2; a constant frequency offset contributes
// nothing because ADEV differentiates twice). core_allan_test uses this to
// show the oscillator produces the advertised noise mix.
//
// Implemented as the overlapping Allan deviation over a uniformly sampled
// phase (time-offset) series x_i taken every tau0 seconds:
//   sigma_y^2(m*tau0) = sum (x_{i+2m} - 2 x_{i+m} + x_i)^2
//                       / (2 (m*tau0)^2 (N - 2m))
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace mntp::test_support {

/// Overlapping Allan deviation at averaging factor m (tau = m * tau0).
/// Requires xs.size() > 2m and m >= 1; returns 0 otherwise.
[[nodiscard]] double allan_deviation_at(std::span<const double> phase_s,
                                        double tau0_s, std::size_t m);

/// The sigma-tau curve at octave-spaced averaging factors
/// m = 1, 2, 4, ... while 2m < N. Returns (tau seconds, ADEV) pairs.
[[nodiscard]] std::vector<std::pair<double, double>> allan_deviation(
    std::span<const double> phase_s, double tau0_s);

/// Log-log slope between the first and last points of a sigma-tau curve —
/// the quantity that identifies the dominant noise type over that range.
[[nodiscard]] double sigma_tau_slope(
    const std::vector<std::pair<double, double>>& curve);

}  // namespace mntp::test_support
