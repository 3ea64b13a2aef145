// Batch least squares: the reference core_linreg_test checks
// `core::IncrementalLinReg` against. Test support, written as an
// independent two-pass fit (means first, then centered sums) so it
// shares no arithmetic with the accumulator it judges.
#pragma once

#include <optional>
#include <span>

#include "core/linreg.h"

namespace mntp::test_support {

/// Ordinary least squares over paired samples. Returns nullopt when the
/// sizes differ, with fewer than two points, or when all x values
/// coincide (vertical line). r_squared is 1 for constant y.
[[nodiscard]] std::optional<core::LinearFit> least_squares(
    std::span<const double> xs, std::span<const double> ys);

}  // namespace mntp::test_support
