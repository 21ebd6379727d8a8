#pragma once

/// \file harmonics.hpp
/// Spherical harmonics in the normalization used by Greengard & Rokhlin.
///
///   Y_n^m(theta, phi) = sqrt((n-|m|)! / (n+|m|)!) P_n^{|m|}(cos theta) e^{i m phi}
///
/// with the Condon-Shortley phase folded into P_n^m (see legendre.hpp).
/// Under this convention Y_n^{-m} = conj(Y_n^m), so all expansion types store
/// only m >= 0 coefficients.
///
/// Harmonics are evaluated for the direction of a Cartesian offset d, with
/// cos(theta), sin(theta) and e^{i phi} read straight from its components
/// (see Direction) — no acos, atan2, sin or cos anywhere. One m-outer
/// recurrence, for_each_scaled_legendre(), produces every v_n^m =
/// y_norm(n, m) P_n^m; for_each_harmonic() phases it into Y_n^m, whose
/// consumers either store the values (eval_harmonics) or fold them into a
/// running sum as they are produced (the on-the-fly M2P/L2P kernels).
///
/// Also provides the factorial table and the A_n^m = (-1)^n / sqrt((n-m)!(n+m)!)
/// combinatorial coefficients of the translation operators.

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <span>

#include "geom/vec3.hpp"
#include "multipole/legendre.hpp"

namespace treecode {

using Complex = std::complex<double>;

/// Largest supported expansion degree. Factorials up to (2*kMaxDegree)! must
/// fit in a double; 60 keeps 120! ~ 6.7e198 comfortably below DBL_MAX.
inline constexpr int kMaxDegree = 60;

/// k! for k in [0, 2*kMaxDegree], from a precomputed table.
double factorial(int k) noexcept;

/// Translation coefficient A_n^m = (-1)^n / sqrt((n-m)! (n+m)!).
/// `m` may be negative (A is even in m). Precondition: |m| <= n <= kMaxDegree.
double a_coeff(int n, int m) noexcept;

/// Harmonic normalization sqrt((n-m)!/(n+m)!) for 0 <= m <= n, read from the
/// packed table the recurrence multiplies by.
double y_norm(int n, int m) noexcept;

/// i^k for any integer k (k may be negative).
Complex ipow(int k) noexcept;

/// The polar direction of an offset d = point - center, in the form the
/// harmonic recurrence consumes.
struct Direction {
  double r = 0.0;           ///< |d|
  double cos_theta = 1.0;   ///< d.z / r, clamped to [-1, 1]
  double sin_theta = 0.0;   ///< sqrt(d.x^2 + d.y^2) / r
  Complex eiphi{1.0, 0.0};  ///< (d.x + i d.y) / sqrt(d.x^2 + d.y^2)
};

/// Direction of `d`. At d = 0 it is +z (cos 1, sin 0, e^{i phi} = 1), so a
/// source at its expansion center keeps finite harmonics and r^n = 0 zeroes
/// every n >= 1 term; on the z axis e^{i phi} = 1. Both match the angles
/// to_spherical() reports there.
inline Direction direction_of(const Vec3& d) noexcept {
  Direction u;
  u.r = norm(d);
  if (u.r == 0.0) return u;
  const double rho = std::sqrt(d.x * d.x + d.y * d.y);
  u.cos_theta = std::clamp(d.z / u.r, -1.0, 1.0);
  u.sin_theta = rho / u.r;
  if (rho > 0.0) u.eiphi = Complex{d.x / rho, d.y / rho};
  return u;
}

namespace detail {

/// Per-(n, m) constants of the harmonic recurrence, packed by tri_index and
/// computed once.
struct HarmonicTables {
  static constexpr std::size_t kSize = tri_size(kMaxDegree);
  std::array<double, kSize> norm;  ///< sqrt((n-m)!/(n+m)!), the y_norm values
  std::array<double, kSize> a;     ///< (2n-1)/(n-m), column recurrence, n >= m+2
  std::array<double, kSize> b;     ///< (n+m-1)/(n-m), column recurrence, n >= m+2
};

const HarmonicTables& harmonic_tables() noexcept;

}  // namespace detail

/// Visit the scaled Legendre values v_n^m = y_norm(n, m) P_n^m(cos theta)
/// for every 0 <= m <= n <= p in m-outer order (m = 0..p, then n = m..p),
/// calling f(n, m, v) per value and end_column() after each column. Each
/// column runs the recurrence (n-m) P_n^m = (2n-1) x P_{n-1}^m -
/// (n+m-1) P_{n-2}^m from the diagonal P_m^m = (-1)^m (2m-1)!! sin^m.
/// Y_n^m = v_n^m e^{i m phi}: this is the one recurrence behind every
/// harmonic (for_each_harmonic phases it).
template <typename F, typename G>
void for_each_scaled_legendre(int p, const Direction& u, F&& f, G&& end_column) {
  const detail::HarmonicTables& t = detail::harmonic_tables();
  const double x = u.cos_theta;
  double pmm = 1.0;  // P_m^m
  for (int m = 0; m <= p; ++m) {
    std::size_t i = tri_index(m, m);
    f(m, m, t.norm[i] * pmm);
    if (m < p) {
      double p2 = pmm;
      double p1 = x * (2 * m + 1) * pmm;
      i += static_cast<std::size_t>(m) + 1;  // tri_index(m + 1, m)
      f(m + 1, m, t.norm[i] * p1);
      for (int n = m + 2; n <= p; ++n) {
        i += static_cast<std::size_t>(n);  // tri_index(n, m)
        const double pn = t.a[i] * x * p1 - t.b[i] * p2;
        f(n, m, t.norm[i] * pn);
        p2 = p1;
        p1 = pn;
      }
    }
    pmm *= -(2 * m + 1) * u.sin_theta;
    end_column();
  }
}

/// e^{i m phi} for m = 0, 1, 2, ...: starts at 1 and advances by one
/// complex multiply with e^{i phi} per step. for_each_harmonic advances it,
/// and the two-lane kernels (operators.cpp) repeat its operations lane by
/// lane, so their phases are bitwise the recurrence's.
struct PhaseChain {
  double c;         ///< cos phi
  double s;         ///< sin phi
  double er = 1.0;  ///< Re e^{i m phi}
  double ei = 0.0;  ///< Im e^{i m phi}

  void advance() noexcept {
    const double er_next = er * c - ei * s;
    ei = er * s + ei * c;
    er = er_next;
  }
};

/// Visit Y_n^m(u) = v_n^m e^{i m phi} for every 0 <= m <= n <= p in
/// for_each_scaled_legendre's order, calling f(n, m, Y_n^m).
template <typename F>
void for_each_harmonic(int p, const Direction& u, F&& f) {
  PhaseChain e{u.eiphi.real(), u.eiphi.imag()};
  for_each_scaled_legendre(
      p, u, [&f, &e](int n, int m, double v) { f(n, m, Complex{v * e.er, v * e.ei}); },
      [&e] { e.advance(); });
}

/// Store Y_n^m(u) for all 0 <= m <= n <= p into `Y`
/// (packed layout tri_index(n, m); size >= tri_size(p)).
void eval_harmonics(int p, const Direction& u, std::span<Complex> Y);

/// Evaluate Y plus the two angular derivative arrays needed for gradients:
///   dY[n][m]     = d/dtheta Y_n^m(u)
///   Ysin[n][m]   = Y_n^m / sin(theta), computed pole-safely (0 for m = 0)
void eval_harmonics_derivs(int p, const Direction& u, std::span<Complex> Y,
                           std::span<Complex> dY, std::span<Complex> Ysin);

}  // namespace treecode
