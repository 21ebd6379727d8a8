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
// Precomputed evaluation basis
//
// The m2p kernel factors into a charge-independent geometric basis
// (1/r and the spherical harmonics Y_n^m of the target direction) and a
// dot product with the multipole coefficients. m2p() itself runs the
// harmonic recurrence on the fly and folds each Y_n^m into its degree's
// bracket as it is produced; no transcendental is evaluated on either path,
// so what a stored basis saves is only the Legendre recurrence and the
// normalization multiplies. For repeated evaluations over fixed geometry
// (compiled traversal plans), the basis can be computed once and replayed.
//
// A basis stores the scaled Legendre values v_n^m = y_norm(n, m) P_n^m
// (one double each, packed by tri_index) after a three-double header
// [x, cos phi, sin phi], not the complex Y_n^m = v_n^m e^{i m phi}: the
// apply rebuilds e^{i m phi} from the stored e^{i phi} with the complex
// multiply chain for_each_harmonic() advances (PhaseChain) and forms
// v * Re, v * Im on the fly. Those are the recurrence's own operations on
// the recurrence's own doubles, so every apply is bitwise-equal to the
// fused kernel while the basis is about half the size of a Y_n^m table.

/// Doubles in an evaluation basis header: [x, cos phi, sin phi], where x is
/// 1/r for m2p and rho for p2m.
inline constexpr std::size_t kBasisHeader = 3;

/// Doubles needed to store the m2p basis for degree p:
/// [1/r, cos phi, sin phi] + tri_size(p) scaled Legendre values.
[[nodiscard]] constexpr std::size_t m2p_basis_size(int p) noexcept {
  return kBasisHeader + tri_size(p);
}

/// Fill `out` (size >= m2p_basis_size(p)) with the evaluation basis of
/// `point` relative to `center`. Precondition: point != center.
void m2p_basis(int p, const Vec3& center, const Vec3& point, std::span<double> out);

/// Evaluate the expansion against a basis previously filled by m2p_basis()
/// with p == m.degree(). Bitwise-identical to m2p(m, center, point).
double m2p_apply_basis(const MultipoleExpansion& m, const double* basis) noexcept;

/// Multi-RHS m2p_apply_basis(): out[c] (overwritten; out.size() == m.size())
/// is bitwise m2p_apply_basis(m[c], basis). Every m[c] has the basis's
/// degree. Each degree's Y_n^m row is formed once and shared by the
/// columns; each column keeps its single-RHS products and order.
void m2p_apply_basis_batch(std::span<const MultipoleExpansion> m, const double* basis,
                           std::span<double> out) noexcept;

/// The same factorization for p2m: per source particle the charge enters
/// through exactly two multiplies (q * rho^n, then the scale of conj(Y)),
/// so rho, e^{i phi} and the scaled Legendre values can be stored once per
/// (node, particle) and replayed for every new charge vector; the apply
/// recomputes the rho^n chain with p2m()'s multiplies.

/// Doubles needed for the p2m basis of `count` particles at degree p:
/// count * ([rho, cos phi, sin phi] + tri_size(p) scaled Legendre values).
[[nodiscard]] constexpr std::size_t p2m_basis_size(int p, std::size_t count) noexcept {
  return count * (kBasisHeader + tri_size(p));
}

/// Fill `out` (size >= p2m_basis_size(p, positions.size())) with the p2m
/// basis of the particles relative to `center`.
void p2m_basis(int p, const Vec3& center, std::span<const Vec3> positions,
               std::span<double> out);

/// Accumulate the particles' multipole contributions from a basis filled by
/// p2m_basis() with p == out.degree() and the same particle count/order.
/// Bitwise-identical to p2m(center, positions, charges, out).
void p2m_apply_basis(std::span<const double> charges, const double* basis,
                     MultipoleExpansion& out) noexcept;

/// Multi-RHS p2m_apply_basis(): accumulates column c's charges into out[c]
/// (out.size() == charge_columns.size(); every out[c] has the basis's
/// degree; every column has the basis's particle count). Each particle's
/// conj(Y_n^m) row is formed once and shared by the columns; out[c] ends
/// bitwise as p2m_apply_basis(charge_columns[c], basis, out[c]) leaves it.
void p2m_apply_basis_batch(std::span<const std::span<const double>> charge_columns,
                           const double* basis, std::span<MultipoleExpansion> out) noexcept;

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
