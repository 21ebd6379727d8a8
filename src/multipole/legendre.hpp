#pragma once

/// \file legendre.hpp
/// Associated Legendre function recurrences with theta-derivatives.
///
/// Computes, for all 0 <= m <= n <= p, the values
///
///   P[n][m]  = P_n^m(cos(theta))                 (Condon-Shortley phase)
///   T[n][m]  = d/dtheta P_n^m(cos(theta))
///   U[n][m]  = P_n^m(cos(theta)) / sin(theta)    (m >= 1; U[n][0] = 0)
///
/// T and U are obtained by differentiating the three standard recurrences
/// directly, so both are *pole-safe*: no 1/sin(theta) division ever occurs
/// (P_n^m carries a sin^m factor, so P/sin is a polynomial in cos and sin for
/// m >= 1). They feed the analytic gradients of multipole/local expansions;
/// the plain P_n^m recurrence behind every other harmonic lives in
/// for_each_scaled_legendre() (harmonics.hpp).
///
/// Storage is the packed triangular layout shared with the expansions:
/// index (n, m) -> n*(n+1)/2 + m.

#include <cstddef>
#include <span>

namespace treecode {

/// Packed triangular index for (n, m) with 0 <= m <= n.
constexpr std::size_t tri_index(int n, int m) noexcept {
  return static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) + 1) / 2 +
         static_cast<std::size_t>(m);
}

/// Number of packed (n, m) coefficients for degrees 0..p.
constexpr std::size_t tri_size(int p) noexcept {
  return static_cast<std::size_t>(p + 1) * static_cast<std::size_t>(p + 2) / 2;
}

/// Evaluate P, T = dP/dtheta, and U = P/sin(theta) in one pass.
/// All spans must have size >= tri_size(p). U[tri_index(n,0)] is set to 0.
void legendre_all_derivs(int p, double cos_theta, double sin_theta, std::span<double> P,
                         std::span<double> T, std::span<double> U);

}  // namespace treecode
