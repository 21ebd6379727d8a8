#pragma once

/// \file operators.hpp
/// The multipole operator set: P2M, M2M, M2L, L2L, M2P, L2P, P2P.
///
/// Conventions (Greengard & Rokhlin; see harmonics.hpp):
///  * multipole expansion about center c:
///      Phi(P) = sum_{n<=p} sum_{|m|<=n} M_n^m Y_n^m(theta,phi) / r^(n+1),
///      M_n^m = sum_i q_i rho_i^n Y_n^{-m}(alpha_i, beta_i),
///    where (rho_i, alpha_i, beta_i) are spherical coordinates of source i
///    about c and (r, theta, phi) those of the evaluation point P. The
///    operators never form these angles: every harmonic is evaluated from
///    the Cartesian offset (direction_of() in harmonics.hpp).
///  * local expansion about center c:
///      Phi(P) = sum_{n<=p} sum_{|m|<=n} L_n^m Y_n^m(theta,phi) r^n.
///
/// Translations are the classical O(p^4) operators (Greengard's Lemmas
/// 3.2.3-3.2.5). M2M is *exact* order-by-order: shifted coefficients of
/// degree <= p depend only on source coefficients of degree <= p. M2L and
/// L2L are exact given the truncated source. Sources of lower degree than
/// the target are handled transparently (missing orders read as zero).

#include <array>
#include <span>

#include "geom/vec3.hpp"
#include "multipole/expansion.hpp"

namespace treecode {

// ---------------------------------------------------------------------------
// Particle -> multipole

/// Accumulate the multipole expansion of point charges about `center` into
/// `out` (which fixes the degree). Positions/charges are parallel spans.
/// Sources run two at a time as the lanes of one 16-byte vector (as in
/// m2p_pair); each coefficient takes the two contributions in source
/// order, so the result is bitwise that of one source at a time.
void p2m(const Vec3& center, std::span<const Vec3> positions, std::span<const double> charges,
         MultipoleExpansion& out);

/// Accumulate the multipole expansion of point *dipoles* about `center`:
/// source i contributes the field d_i . grad_y (1/|x - y_i|), i.e. the
/// coefficients are M_n^m += d_i . grad_y [rho^n Y_n^{-m}(y)] — the
/// derivative of the regular solid harmonic at the source, computed with
/// the pole-safe Legendre-derivative recurrences. Used by the double-layer
/// (second-kind) boundary operator.
void p2m_dipole(const Vec3& center, std::span<const Vec3> positions,
                std::span<const Vec3> moments, MultipoleExpansion& out);

// ---------------------------------------------------------------------------
// Translations

/// Shift `src` (about src_center) and accumulate into `dst` (about
/// dst_center). Exact for orders <= min(src.degree, dst.degree); if
/// dst.degree > src.degree the missing source orders contribute nothing
/// (the usual truncation of the adaptive method).
void m2m(const MultipoleExpansion& src, const Vec3& src_center, MultipoleExpansion& dst,
         const Vec3& dst_center);

/// Convert `src` (multipole about src_center) into a local expansion about
/// dst_center, accumulating into `dst`. Requires the evaluation sphere of
/// `dst` to be well-separated from the source sphere (caller enforces the
/// MAC); degree of the internal harmonics is src.degree + dst.degree.
void m2l(const MultipoleExpansion& src, const Vec3& src_center, LocalExpansion& dst,
         const Vec3& dst_center);

/// Shift the local expansion `src` (about src_center) to dst_center,
/// accumulating into `dst`. Exact (triangular in the opposite direction of
/// m2m).
void l2l(const LocalExpansion& src, const Vec3& src_center, LocalExpansion& dst,
         const Vec3& dst_center);

// ---------------------------------------------------------------------------
// Evaluations

/// Potential and (optionally) its gradient at one point.
struct PotentialGrad {
  double potential = 0.0;
  Vec3 gradient{};  ///< grad Phi; the force on a unit charge is -grad Phi.
};

/// Evaluate the multipole expansion at `point` (outside the source sphere).
/// Fused kernel: the harmonics are consumed as the recurrence produces them,
/// with no Y array.
double m2p(const MultipoleExpansion& m, const Vec3& center, const Vec3& point);

/// Two m2p() calls at once: {m2p(a, center_a, point), m2p(b, center_b,
/// point)}, bitwise. Precondition: a.degree() == b.degree(). The two
/// evaluations run as the two lanes of one 16-byte vector, each performing
/// exactly m2p()'s scalar operations in m2p()'s order, so the Legendre
/// recurrence's dependency chain is paid once per pair rather than once
/// per expansion. Degrees up to 12 run a compile-time-unrolled kernel.
std::array<double, 2> m2p_pair(const MultipoleExpansion& a, const Vec3& center_a,
                               const MultipoleExpansion& b, const Vec3& center_b,
                               const Vec3& point) noexcept;

// ---------------------------------------------------------------------------
// Multi-RHS kernels
//
// The charges enter m2p and p2m only after the geometry: 1/r, e^{i phi} and
// the scaled Legendre values depend on the offset alone. The batch forms run
// the direction and the harmonic recurrence once and share each Y_n^m among
// K columns, each column keeping the single-RHS kernel's products in its
// order, so column k is bitwise the single-RHS result.

/// Multi-RHS m2p(): out[k] (overwritten; out.size() == m.size()) is bitwise
/// m2p(m[k], center, point). Every m[k] has m[0]'s degree.
void m2p_batch(std::span<const MultipoleExpansion> m, const Vec3& center, const Vec3& point,
               std::span<double> out) noexcept;

/// Multi-RHS p2m(): accumulates column k's charges into out[k]
/// (out.size() == charge_columns.size(); every out[k] has out[0]'s degree;
/// every column has positions.size() charges). out[k] ends bitwise as
/// p2m(center, positions, charge_columns[k], out[k]) leaves it.
void p2m_batch(const Vec3& center, std::span<const Vec3> positions,
               std::span<const std::span<const double>> charge_columns,
               std::span<MultipoleExpansion> out) noexcept;

/// Evaluate potential and analytic gradient of the multipole expansion.
PotentialGrad m2p_grad(const MultipoleExpansion& m, const Vec3& center, const Vec3& point);

/// Evaluate the local expansion at `point` (inside its validity sphere).
double l2p(const LocalExpansion& l, const Vec3& center, const Vec3& point);

/// Evaluate potential and analytic gradient of the local expansion.
PotentialGrad l2p_grad(const LocalExpansion& l, const Vec3& center, const Vec3& point);

// ---------------------------------------------------------------------------
// Direct kernels

/// Potential at `point` due to charges, by direct summation of
/// q / sqrt(|r|^2 + softening2). `softening2` is the square of the Plummer
/// softening length (0 = exact Coulomb/Newton kernel, the default used by
/// the error analysis; n-body integrations use a small epsilon to bound
/// close-encounter forces). Sources located exactly at `point` are skipped
/// (self-interaction rule) regardless of softening.
double p2p(const Vec3& point, std::span<const Vec3> positions, std::span<const double> charges,
           double softening2 = 0.0);

/// Multi-RHS direct summation: potentials at `point` against the same
/// particle set for several charge columns at once, accumulated into `out`
/// (out.size() == charge_columns.size(); out[c] is *overwritten*). Each
/// column performs the identical per-particle division on the identical
/// operands in the identical order as p2p() would on that column alone, so
/// out[c] is bitwise-equal to p2p(point, positions, charge_columns[c],
/// softening2). The positions/distances are computed once and shared across
/// columns — the arithmetic-intensity win of batched replay.
void p2p_batch(const Vec3& point, std::span<const Vec3> positions,
               std::span<const std::span<const double>> charge_columns,
               double softening2, std::span<double> out);

/// Potential and gradient at `point` by direct summation (softened as p2p).
PotentialGrad p2p_grad(const Vec3& point, std::span<const Vec3> positions,
                       std::span<const double> charges, double softening2 = 0.0);

/// Potential at `point` due to point dipoles, by direct summation of
/// d_i . (point - y_i) / |point - y_i|^3. Coincident sources are skipped.
double p2p_dipole(const Vec3& point, std::span<const Vec3> positions,
                  std::span<const Vec3> moments);

}  // namespace treecode
