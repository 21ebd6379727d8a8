#pragma once

/// \file ipow.hpp
/// Integer-exponent power by squaring.
///
/// The error-bound kernels raise ratios to the (p+1)-th power for every
/// accepted interaction, and std::pow with an integer exponent routes
/// through the general exp/log machinery — an order of magnitude slower
/// than the O(log p) multiply chain below and the thing
/// treecode-analyze rule `pow-integer-exponent` exists to catch.

namespace treecode {

/// base^n for integer n (negative n yields 1 / base^(-n)).
[[nodiscard]] constexpr double ipow(double base, int n) noexcept {
  if (n < 0) return 1.0 / ipow(base, -n);
  double result = 1.0;
  while (n > 0) {
    if ((n & 1) != 0) result *= base;
    base *= base;
    n >>= 1;
  }
  return result;
}

}  // namespace treecode
