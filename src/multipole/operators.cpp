#include "multipole/operators.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace treecode {

namespace {

/// Y_n^m for any sign of m from an m >= 0 packed array.
inline Complex y_signed(std::span<const Complex> Y, int n, int m) noexcept {
  return m >= 0 ? Y[tri_index(n, m)] : std::conj(Y[tri_index(n, -m)]);
}

/// rho^0..rho^p into `powers`.
void eval_powers(double rho, int p, std::vector<double>& powers) {
  powers.resize(static_cast<std::size_t>(p) + 1);
  powers[0] = 1.0;
  for (int n = 1; n <= p; ++n) powers[static_cast<std::size_t>(n)] = powers[static_cast<std::size_t>(n - 1)] * rho;
}

/// Per-degree brackets of an expansion evaluated in direction u:
///   bracket[n] = Re(C_n^0 Y_n^0) + 2 sum_{m>=1} Re(C_n^m Y_n^m),
/// folded straight from the recurrence, with no Y array. Each bracket
/// accumulates in ascending m with Re(C Y) = re*re - im*im, the products and
/// order of add_brackets(), so m2p() and m2p_batch() agree bitwise.
/// Column m = 0 comes first and assigns every bracket[n], n <= degree, so
/// callers pass an uninitialized array (zeroing it costs as much as a
/// low-degree M2P).
template <typename Expansion>
void degree_brackets(const Expansion& e, const Direction& u, double* bracket) {
  for_each_harmonic(e.degree(), u, [&e, bracket](int n, int m, Complex y) {
    const Complex c = e.coeff(n, m);
    const double t = c.real() * y.real() - c.imag() * y.imag();
    if (m == 0) {
      bracket[n] = t;
    } else {
      bracket[n] += 2.0 * t;
    }
  });
}

/// Degree n's term of m2p() for G columns at once: out[g] += bracket_g *
/// rpow, each bracket with degree_brackets()' products in its order, on the
/// shared row Y_n^m = (yr[m], yi[m]). The G independent chains share every
/// Y load (G = 2 keeps both brackets in registers).
template <std::size_t G>
void add_brackets(const MultipoleExpansion* mexp, std::size_t i0, int n, const double* yr,
                  const double* yi, double rpow, double* out) noexcept {
  const Complex* c[G];
  double bracket[G];
  for (std::size_t g = 0; g < G; ++g) {
    c[g] = mexp[g].data().data() + i0;
    bracket[g] = c[g][0].real() * yr[0] - c[g][0].imag() * yi[0];
  }
  for (int m = 1; m <= n; ++m) {
    for (std::size_t g = 0; g < G; ++g) {
      bracket[g] += 2.0 * (c[g][m].real() * yr[m] - c[g][m].imag() * yi[m]);
    }
  }
  for (std::size_t g = 0; g < G; ++g) out[g] += bracket[g] * rpow;
}

/// Local spherical unit vectors at direction u.
struct SphericalFrame {
  Vec3 rhat, that, phat;
};

SphericalFrame frame_of(const Direction& u) noexcept {
  const double st = u.sin_theta;
  const double ct = u.cos_theta;
  const double cp = u.eiphi.real();
  const double sp = u.eiphi.imag();
  return {{st * cp, st * sp, ct}, {ct * cp, ct * sp, -st}, {-sp, cp, 0.0}};
}

/// When translating between coincident centers the operators degenerate to
/// coefficient addition (degree-aware).
template <typename Expansion>
void add_coincident(const Expansion& src, Expansion& dst) {
  const int p = dst.degree() < src.degree() ? dst.degree() : src.degree();
  for (int n = 0; n <= p; ++n) {
    for (int m = 0; m <= n; ++m) dst.coeff(n, m) += src.coeff(n, m);
  }
}

}  // namespace

void p2m_batch(const Vec3& center, std::span<const Vec3> positions,
               std::span<const std::span<const double>> charge_columns,
               std::span<MultipoleExpansion> out) noexcept {
  const std::size_t k = charge_columns.size();
  if (k == 0) return;
  const int p = out[0].degree();
  assert(p >= 0 && p <= kMaxDegree);
  // One source's conj(Y_n^m), re/im interleaved by tri_index, shared by
  // every column: (v er, -(v ei)), the p2m() lanes' operands.
  double y[2 * tri_size(kMaxDegree)];
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Direction u = direction_of(positions[i] - center);
    for_each_harmonic(p, u, [&y](int n, int m, Complex ynm) {
      const std::size_t j = tri_index(n, m);
      y[2 * j] = ynm.real();
      y[2 * j + 1] = -ynm.imag();
    });
    double rho_n = 1.0;  // rho^n, advanced as p2m() advances it
    for (int n = 0; n <= p; ++n) {
      const std::size_t i0 = tri_index(n, 0);
      const double* row = y + 2 * i0;
      for (std::size_t c = 0; c < k; ++c) {
        // Column c's single-RHS products: coeff += (q rho^n) conj(Y).
        const double qr = charge_columns[c][i] * rho_n;
        Complex* coeff = out[c].data().data() + i0;
        for (int m = 0; m <= n; ++m) {
          coeff[m] += Complex{qr * row[2 * m], qr * row[2 * m + 1]};
        }
      }
      rho_n *= u.r;
    }
  }
}

void p2m_dipole(const Vec3& center, std::span<const Vec3> positions,
                std::span<const Vec3> moments, MultipoleExpansion& out) {
  assert(positions.size() == moments.size());
  const int p = out.degree();
  assert(p >= 0 && p <= kMaxDegree);
  thread_local std::vector<Complex> Y, dY, Ysin;
  Y.resize(tri_size(p));
  dY.resize(tri_size(p));
  Ysin.resize(tri_size(p));
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Direction u = direction_of(positions[i] - center);
    eval_harmonics_derivs(p, u, Y, dY, Ysin);
    // Components of the dipole moment in the local spherical frame.
    const SphericalFrame f = frame_of(u);
    const double dr = dot(moments[i], f.rhat);
    const double dth = dot(moments[i], f.that);
    const double dph = dot(moments[i], f.phat);
    // M_n^m += d . grad_y [rho^n conj(Y_n^m)]; the n = 0 term is constant
    // in y, so dipoles contribute nothing there (zero net charge).
    double rp = 1.0;  // rho^(n-1)
    for (int n = 1; n <= p; ++n) {
      for (int m = 0; m <= n; ++m) {
        const std::size_t idx = tri_index(n, m);
        // conj(i m Ysin) = -i m conj(Ysin)
        const Complex grad_f =
            rp * (dr * static_cast<double>(n) * std::conj(Y[idx]) +
                  dth * std::conj(dY[idx]) +
                  dph * Complex{0.0, -static_cast<double>(m)} * std::conj(Ysin[idx]));
        out.coeff(n, m) += grad_f;
      }
      rp *= u.r;
    }
  }
}

void m2m(const MultipoleExpansion& src, const Vec3& src_center, MultipoleExpansion& dst,
         const Vec3& dst_center) {
  const int pd = dst.degree();
  assert(pd >= 0 && pd <= kMaxDegree);
  const Direction u = direction_of(src_center - dst_center);
  if (u.r == 0.0) {
    add_coincident(src, dst);
    return;
  }
  thread_local std::vector<Complex> Y;
  thread_local std::vector<double> rho_pow;
  Y.resize(tri_size(pd));
  eval_harmonics(pd, u, Y);
  eval_powers(u.r, pd, rho_pow);

  for (int j = 0; j <= pd; ++j) {
    for (int k = 0; k <= j; ++k) {
      Complex acc{0.0, 0.0};
      for (int n = 0; n <= j; ++n) {
        const int jn = j - n;
        for (int m = -n; m <= n; ++m) {
          const int km = k - m;
          if (km < -jn || km > jn) continue;
          const Complex o = src.coeff_signed(jn, km);
          if (o == Complex{0.0, 0.0}) continue;
          const int absk = k;  // k >= 0 here
          const int absm = m < 0 ? -m : m;
          const int abskm = km < 0 ? -km : km;
          acc += o * ipow(absk - absm - abskm) *
                 (a_coeff(n, m) * a_coeff(jn, km) * rho_pow[static_cast<std::size_t>(n)]) *
                 y_signed(Y, n, -m);
        }
      }
      dst.coeff(j, k) += acc / a_coeff(j, k);
    }
  }
}

void m2l(const MultipoleExpansion& src, const Vec3& src_center, LocalExpansion& dst,
         const Vec3& dst_center) {
  const int ps = src.degree();
  const int pd = dst.degree();
  assert(ps >= 0 && pd >= 0 && ps + pd <= kMaxDegree);
  const Direction u = direction_of(src_center - dst_center);
  assert(u.r > 0.0 && "m2l requires separated centers");
  const int ptot = ps + pd;
  thread_local std::vector<Complex> Y;
  thread_local std::vector<double> inv_rho_pow;
  Y.resize(tri_size(ptot));
  eval_harmonics(ptot, u, Y);
  // 1/rho^(j+n+1) for j+n in [0, ptot]
  inv_rho_pow.resize(static_cast<std::size_t>(ptot) + 2);
  inv_rho_pow[0] = 1.0 / u.r;
  for (int n = 1; n <= ptot + 1; ++n) {
    inv_rho_pow[static_cast<std::size_t>(n)] = inv_rho_pow[static_cast<std::size_t>(n - 1)] / u.r;
  }

  for (int j = 0; j <= pd; ++j) {
    for (int k = 0; k <= j; ++k) {
      Complex acc{0.0, 0.0};
      for (int n = 0; n <= ps; ++n) {
        const double sign_n = (n % 2 == 0) ? 1.0 : -1.0;
        for (int m = -n; m <= n; ++m) {
          const Complex o = src.coeff_signed(n, m);
          if (o == Complex{0.0, 0.0}) continue;
          const int absm = m < 0 ? -m : m;
          const int mk = m - k;
          const int absmk = mk < 0 ? -mk : mk;
          acc += o * ipow(absmk - k - absm) *
                 (a_coeff(n, m) * a_coeff(j, k) /
                  (sign_n * a_coeff(j + n, mk))) *
                 y_signed(Y, j + n, mk) * inv_rho_pow[static_cast<std::size_t>(j + n)];
        }
      }
      dst.coeff(j, k) += acc;
    }
  }
}

void l2l(const LocalExpansion& src, const Vec3& src_center, LocalExpansion& dst,
         const Vec3& dst_center) {
  const int ps = src.degree();
  const int pd = dst.degree();
  assert(ps >= 0 && pd >= 0 && ps <= kMaxDegree);
  const Direction u = direction_of(src_center - dst_center);
  if (u.r == 0.0) {
    add_coincident(src, dst);
    return;
  }
  thread_local std::vector<Complex> Y;
  thread_local std::vector<double> rho_pow;
  Y.resize(tri_size(ps));
  eval_harmonics(ps, u, Y);
  eval_powers(u.r, ps, rho_pow);

  for (int j = 0; j <= pd && j <= ps; ++j) {
    for (int k = 0; k <= j; ++k) {
      Complex acc{0.0, 0.0};
      for (int n = j; n <= ps; ++n) {
        const int nj = n - j;
        const double sign_nj = ((n + j) % 2 == 0) ? 1.0 : -1.0;
        for (int m = -n; m <= n; ++m) {
          const int mk = m - k;
          if (mk < -nj || mk > nj) continue;
          const Complex o = src.coeff_signed(n, m);
          if (o == Complex{0.0, 0.0}) continue;
          const int absm = m < 0 ? -m : m;
          const int absmk = mk < 0 ? -mk : mk;
          acc += o * ipow(absm - absmk - k) *
                 (a_coeff(nj, mk) * a_coeff(j, k) /
                  (sign_nj * a_coeff(n, m))) *
                 y_signed(Y, nj, mk) * rho_pow[static_cast<std::size_t>(nj)];
        }
      }
      dst.coeff(j, k) += acc;
    }
  }
}

double m2p(const MultipoleExpansion& mexp, const Vec3& center, const Vec3& point) {
  const int p = mexp.degree();
  const Direction u = direction_of(point - center);
  assert(u.r > 0.0);
  double bracket[kMaxDegree + 1];
  degree_brackets(mexp, u, bracket);
  const double inv_r = 1.0 / u.r;
  double phi = 0.0;
  double rpow = inv_r;  // 1/r^(n+1)
  for (int n = 0; n <= p; ++n) {
    phi += bracket[n] * rpow;
    rpow *= inv_r;
  }
  return phi;
}

namespace {

/// Two doubles in one SSE2 register (GCC vector extension). Every +, -, *
/// and / acts lane by lane with the scalar operation's IEEE rounding, so a
/// lane that performs m2p()'s operations in m2p()'s order yields m2p()'s
/// bits. No FMA exists at the baseline ISA, and -ffp-contract=off keeps
/// wider ISAs from fusing (CMakeLists.txt).
using Lanes = double __attribute__((vector_size(16)));
using LaneIndex = long long __attribute__((vector_size(16)));

/// Highest degree with an unrolled pair kernel; above it one runtime-degree
/// instance serves up to kMaxDegree.
constexpr int kUnrolledPairDegree = 12;

/// m2p() for two same-degree expansions at once, lane 0 on (ca, ua) and
/// lane 1 on (cb, ub): degree_brackets()' recurrence, PhaseChain and
/// bracket folds, then the 1/r^(n+1) sum, each as the scalar statements
/// write them. The two lanes' dependency chains (the Legendre column
/// recurrence above all) then run side by side. P >= 0 fixes the degree at
/// compile time so the loops unroll and the brackets stay in registers;
/// P < 0 reads it from `degree`.
template <int P>
void m2p_pair_kernel(int degree, const Complex* ca, const Complex* cb, const Direction& ua,
                     const Direction& ub, double* out) noexcept {
  const int p = P >= 0 ? P : degree;
  const detail::HarmonicTables& t = detail::harmonic_tables();
  const Lanes x = {ua.cos_theta, ub.cos_theta};
  const Lanes sin_theta = {ua.sin_theta, ub.sin_theta};
  const Lanes c = {ua.eiphi.real(), ub.eiphi.real()};  // PhaseChain
  const Lanes s = {ua.eiphi.imag(), ub.eiphi.imag()};
  Lanes er = {1.0, 1.0};
  Lanes ei = {0.0, 0.0};
  Lanes bracket[P >= 0 ? P + 1 : kMaxDegree + 1];
  // degree_brackets()' fold of v_n^m = t.norm[i] * P_n^m into bracket[n].
  const auto fold = [&](int n, int m, std::size_t i, Lanes pnm) {
    const Lanes v = t.norm[i] * pnm;
    const Lanes yr = v * er;
    const Lanes yi = v * ei;
    const Lanes cr = {ca[i].real(), cb[i].real()};
    const Lanes cim = {ca[i].imag(), cb[i].imag()};
    const Lanes term = cr * yr - cim * yi;
    if (m == 0) {
      bracket[n] = term;
    } else {
      bracket[n] += 2.0 * term;
    }
  };
  Lanes pmm = {1.0, 1.0};
#pragma GCC unroll 16
  for (int m = 0; m <= p; ++m) {
    std::size_t i = tri_index(m, m);
    fold(m, m, i, pmm);
    if (m < p) {
      Lanes p2 = pmm;
      Lanes p1 = x * static_cast<double>(2 * m + 1) * pmm;
      i += static_cast<std::size_t>(m) + 1;
      fold(m + 1, m, i, p1);
#pragma GCC unroll 16
      for (int n = m + 2; n <= p; ++n) {
        i += static_cast<std::size_t>(n);
        const Lanes pn = t.a[i] * x * p1 - t.b[i] * p2;
        fold(n, m, i, pn);
        p2 = p1;
        p1 = pn;
      }
    }
    pmm *= static_cast<double>(-(2 * m + 1)) * sin_theta;
    const Lanes er_next = er * c - ei * s;
    ei = er * s + ei * c;
    er = er_next;
  }
  const Lanes inv_r = 1.0 / Lanes{ua.r, ub.r};
  Lanes phi = {0.0, 0.0};
  Lanes rpow = inv_r;  // 1/r^(n+1)
#pragma GCC unroll 16
  for (int n = 0; n <= p; ++n) {
    phi += bracket[n] * rpow;
    rpow *= inv_r;
  }
  out[0] = phi[0];
  out[1] = phi[1];
}

using PairKernel = void (*)(int, const Complex*, const Complex*, const Direction&,
                            const Direction&, double*) noexcept;

/// One kernel per degree 0..kMaxDegree: pick(integral_constant<int, P>) for
/// the unrolled degrees P <= kUnrolledPairDegree, pick(...<-1>) above.
template <typename Pick, std::size_t... P>
constexpr auto degree_table(Pick pick, std::index_sequence<P...>) {
  std::array<decltype(pick(std::integral_constant<int, 0>{})), kMaxDegree + 1> table{};
  ((table[P] = pick(std::integral_constant<int, static_cast<int>(P)>{})), ...);
  for (std::size_t p = sizeof...(P); p < table.size(); ++p) {
    table[p] = pick(std::integral_constant<int, -1>{});
  }
  return table;
}

/// The pair kernel of each degree 0..kMaxDegree.
constexpr std::array<PairKernel, kMaxDegree + 1> kPairKernels = degree_table(
    [](auto P) -> PairKernel { return &m2p_pair_kernel<decltype(P)::value>; },
    std::make_index_sequence<kUnrolledPairDegree + 1>{});

/// p2m() for two sources at once, lane 0 on (ua, qa) and lane 1 on
/// (ub, qb): the q rho^n chain, for_each_scaled_legendre()'s recurrence and
/// the PhaseChain, each as the scalar statements write them. Every
/// coefficient then takes lane 0's q rho^n conj(Y), then lane 1's (skipped
/// when !both, for an odd last source), so the sums see p2m()'s additions
/// in source order. P as in m2p_pair_kernel.
template <int P>
void p2m_pair_kernel(int degree, const Direction& ua, const Direction& ub, double qa,
                     double qb, bool both, Complex* coeff) noexcept {
  const int p = P >= 0 ? P : degree;
  const detail::HarmonicTables& t = detail::harmonic_tables();
  const Lanes x = {ua.cos_theta, ub.cos_theta};
  const Lanes sin_theta = {ua.sin_theta, ub.sin_theta};
  const Lanes c = {ua.eiphi.real(), ub.eiphi.real()};  // PhaseChain
  const Lanes s = {ua.eiphi.imag(), ub.eiphi.imag()};
  Lanes er = {1.0, 1.0};
  Lanes ei = {0.0, 0.0};
  Lanes qr[P >= 0 ? P + 1 : kMaxDegree + 1];  // q rho^n per lane
  {
    const Lanes q = {qa, qb};
    const Lanes r = {ua.r, ub.r};
    Lanes rho_n = {1.0, 1.0};
#pragma GCC unroll 16
    for (int n = 0; n <= p; ++n) {
      qr[n] = q * rho_n;
      rho_n *= r;
    }
  }
  // M_n^m += q rho^n conj(Y_n^m), conj(Y) = (v er, -(v ei)), v = norm P_n^m.
  const auto add = [&](int n, std::size_t i, Lanes pnm) {
    const Lanes v = t.norm[i] * pnm;
    const Lanes re = qr[n] * (v * er);
    const Lanes im = qr[n] * -(v * ei);
    // coeff[i] as one (Re, Im) vector takes lane 0's (re, im), then lane 1's.
    double* cell = reinterpret_cast<double*>(&coeff[i]);  // [complex.numbers]
    Lanes sum;
    std::memcpy(&sum, cell, sizeof sum);
    sum += __builtin_shuffle(re, im, LaneIndex{0, 2});
    if (both) sum += __builtin_shuffle(re, im, LaneIndex{1, 3});
    std::memcpy(cell, &sum, sizeof sum);
  };
  Lanes pmm = {1.0, 1.0};
#pragma GCC unroll 16
  for (int m = 0; m <= p; ++m) {
    std::size_t i = tri_index(m, m);
    add(m, i, pmm);
    if (m < p) {
      Lanes p2 = pmm;
      Lanes p1 = x * static_cast<double>(2 * m + 1) * pmm;
      i += static_cast<std::size_t>(m) + 1;
      add(m + 1, i, p1);
#pragma GCC unroll 16
      for (int n = m + 2; n <= p; ++n) {
        i += static_cast<std::size_t>(n);
        const Lanes pn = t.a[i] * x * p1 - t.b[i] * p2;
        add(n, i, pn);
        p2 = p1;
        p1 = pn;
      }
    }
    pmm *= static_cast<double>(-(2 * m + 1)) * sin_theta;
    const Lanes er_next = er * c - ei * s;
    ei = er * s + ei * c;
    er = er_next;
  }
}

using P2mPairKernel = void (*)(int, const Direction&, const Direction&, double, double, bool,
                               Complex*) noexcept;

/// The p2m pair kernel of each degree 0..kMaxDegree.
constexpr std::array<P2mPairKernel, kMaxDegree + 1> kP2mPairKernels = degree_table(
    [](auto P) -> P2mPairKernel { return &p2m_pair_kernel<decltype(P)::value>; },
    std::make_index_sequence<kUnrolledPairDegree + 1>{});

}  // namespace

std::array<double, 2> m2p_pair(const MultipoleExpansion& a, const Vec3& center_a,
                               const MultipoleExpansion& b, const Vec3& center_b,
                               const Vec3& point) noexcept {
  const int p = a.degree();
  assert(b.degree() == p && p >= 0 && p <= kMaxDegree);
  const Direction ua = direction_of(point - center_a);
  const Direction ub = direction_of(point - center_b);
  assert(ua.r > 0.0 && ub.r > 0.0);
  std::array<double, 2> out;
  kPairKernels[static_cast<std::size_t>(p)](p, a.data().data(), b.data().data(), ua, ub,
                                            out.data());
  return out;
}

void p2m(const Vec3& center, std::span<const Vec3> positions, std::span<const double> charges,
         MultipoleExpansion& out) {
  assert(positions.size() == charges.size());
  const int p = out.degree();
  assert(p >= 0 && p <= kMaxDegree);
  const P2mPairKernel kernel = kP2mPairKernels[static_cast<std::size_t>(p)];
  Complex* coeff = out.data().data();
  const std::size_t count = positions.size();
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    kernel(p, direction_of(positions[i] - center), direction_of(positions[i + 1] - center),
           charges[i], charges[i + 1], /*both=*/true, coeff);
  }
  if (i < count) {
    const Direction u = direction_of(positions[i] - center);
    kernel(p, u, u, charges[i], charges[i], /*both=*/false, coeff);
  }
}

void m2p_batch(std::span<const MultipoleExpansion> mexp, const Vec3& center, const Vec3& point,
               std::span<double> out) noexcept {
  const std::size_t k = mexp.size();
  if (k == 0) return;
  const int p = mexp[0].degree();
  const Direction u = direction_of(point - center);
  assert(u.r > 0.0);
  // Y_n^m of the direction by tri_index, as degree_brackets() sees it.
  double yr[tri_size(kMaxDegree)];
  double yi[tri_size(kMaxDegree)];
  for_each_harmonic(p, u, [&yr, &yi](int n, int m, Complex y) {
    yr[tri_index(n, m)] = y.real();
    yi[tri_index(n, m)] = y.imag();
  });
  for (std::size_t c = 0; c < k; ++c) out[c] = 0.0;
  const double inv_r = 1.0 / u.r;
  double rpow = inv_r;  // 1/r^(n+1)
  for (int n = 0; n <= p; ++n) {
    const std::size_t i0 = tri_index(n, 0);
    std::size_t c = 0;  // columns in pairs, then the odd one
    for (; c + 2 <= k; c += 2) add_brackets<2>(&mexp[c], i0, n, yr + i0, yi + i0, rpow, &out[c]);
    if (c < k) add_brackets<1>(&mexp[c], i0, n, yr + i0, yi + i0, rpow, &out[c]);
    rpow *= inv_r;
  }
}

PotentialGrad m2p_grad(const MultipoleExpansion& mexp, const Vec3& center, const Vec3& point) {
  const int p = mexp.degree();
  const Direction u = direction_of(point - center);
  assert(u.r > 0.0);
  thread_local std::vector<Complex> Y, dY, Ysin;
  Y.resize(tri_size(p));
  dY.resize(tri_size(p));
  Ysin.resize(tri_size(p));
  eval_harmonics_derivs(p, u, Y, dY, Ysin);

  const double inv_r = 1.0 / u.r;
  double phi = 0.0;
  double dphi_dr = 0.0;        // d/dr
  double dphi_dth_over_r = 0.0;  // (1/r) d/dtheta
  double dphi_az = 0.0;          // (1/(r sin)) d/dphi
  double rpow = inv_r;           // 1/r^(n+1)
  for (int n = 0; n <= p; ++n) {
    double bval = (mexp.coeff(n, 0) * Y[tri_index(n, 0)]).real();
    double bth = (mexp.coeff(n, 0) * dY[tri_index(n, 0)]).real();
    double baz = 0.0;
    for (int m = 1; m <= n; ++m) {
      const Complex c = mexp.coeff(n, m);
      bval += 2.0 * (c * Y[tri_index(n, m)]).real();
      bth += 2.0 * (c * dY[tri_index(n, m)]).real();
      baz += -2.0 * m * (c * Ysin[tri_index(n, m)]).imag();
    }
    phi += bval * rpow;
    dphi_dr += -(n + 1) * bval * rpow * inv_r;
    dphi_dth_over_r += bth * rpow * inv_r;
    dphi_az += baz * rpow * inv_r;
    rpow *= inv_r;
  }
  const SphericalFrame f = frame_of(u);
  PotentialGrad out;
  out.potential = phi;
  out.gradient = dphi_dr * f.rhat + dphi_dth_over_r * f.that + dphi_az * f.phat;
  return out;
}

double l2p(const LocalExpansion& lexp, const Vec3& center, const Vec3& point) {
  const int p = lexp.degree();
  const Direction u = direction_of(point - center);
  double bracket[kMaxDegree + 1];
  degree_brackets(lexp, u, bracket);
  double phi = 0.0;
  double rpow = 1.0;  // r^n
  for (int n = 0; n <= p; ++n) {
    phi += bracket[n] * rpow;
    rpow *= u.r;
  }
  return phi;
}

PotentialGrad l2p_grad(const LocalExpansion& lexp, const Vec3& center, const Vec3& point) {
  const int p = lexp.degree();
  const Direction u = direction_of(point - center);
  thread_local std::vector<Complex> Y, dY, Ysin;
  Y.resize(tri_size(p));
  dY.resize(tri_size(p));
  Ysin.resize(tri_size(p));
  eval_harmonics_derivs(p, u, Y, dY, Ysin);

  double phi = 0.0;
  double dphi_dr = 0.0;
  double dphi_dth_over_r = 0.0;  // sum over n of r^(n-1) * theta-bracket
  double dphi_az = 0.0;
  double rpow = 1.0;       // r^n
  double rpow_m1 = 0.0;    // r^(n-1), defined for n >= 1
  for (int n = 0; n <= p; ++n) {
    double bval = (lexp.coeff(n, 0) * Y[tri_index(n, 0)]).real();
    double bth = (lexp.coeff(n, 0) * dY[tri_index(n, 0)]).real();
    double baz = 0.0;
    for (int m = 1; m <= n; ++m) {
      const Complex c = lexp.coeff(n, m);
      bval += 2.0 * (c * Y[tri_index(n, m)]).real();
      bth += 2.0 * (c * dY[tri_index(n, m)]).real();
      baz += -2.0 * m * (c * Ysin[tri_index(n, m)]).imag();
    }
    phi += bval * rpow;
    if (n >= 1) {
      dphi_dr += n * bval * rpow_m1;
      dphi_dth_over_r += bth * rpow_m1;
      dphi_az += baz * rpow_m1;
    }
    rpow_m1 = rpow;
    rpow *= u.r;
  }
  const SphericalFrame f = frame_of(u);
  PotentialGrad out;
  out.potential = phi;
  out.gradient = dphi_dr * f.rhat + dphi_dth_over_r * f.that + dphi_az * f.phat;
  return out;
}

double p2p(const Vec3& point, std::span<const Vec3> positions, std::span<const double> charges,
           double softening2) {
  double phi = 0.0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const double r2 = distance2(point, positions[i]);
    if (r2 == 0.0) continue;
    phi += charges[i] / std::sqrt(r2 + softening2);
  }
  return phi;
}

void p2p_batch(const Vec3& point, std::span<const Vec3> positions,
               std::span<const std::span<const double>> charge_columns,
               double softening2, std::span<double> out) {
  const std::size_t k = charge_columns.size();
  for (std::size_t c = 0; c < k; ++c) out[c] = 0.0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const double r2 = distance2(point, positions[i]);
    if (r2 == 0.0) continue;
    // One sqrt shared by every column: p2p() divides by
    // sqrt(r2 + softening2) computed from the same operands, so each
    // column's quotient — and therefore its running sum — is bitwise the
    // single-RHS value.
    const double denom = std::sqrt(r2 + softening2);
    for (std::size_t c = 0; c < k; ++c) out[c] += charge_columns[c][i] / denom;
  }
}

PotentialGrad p2p_grad(const Vec3& point, std::span<const Vec3> positions,
                       std::span<const double> charges, double softening2) {
  PotentialGrad out;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3 d = point - positions[i];
    const double r2 = norm2(d);
    if (r2 == 0.0) continue;
    const double inv_r = 1.0 / std::sqrt(r2 + softening2);
    const double inv_r3 = inv_r * inv_r * inv_r;
    out.potential += charges[i] * inv_r;
    // grad (q (r^2 + e^2)^{-1/2}) = -q r (r^2 + e^2)^{-3/2}
    out.gradient += d * (-charges[i] * inv_r3);
  }
  return out;
}

double p2p_dipole(const Vec3& point, std::span<const Vec3> positions,
                  std::span<const Vec3> moments) {
  double phi = 0.0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3 d = point - positions[i];
    const double r2 = norm2(d);
    if (r2 == 0.0) continue;
    const double inv_r = 1.0 / std::sqrt(r2);
    phi += dot(moments[i], d) * inv_r * inv_r * inv_r;
  }
  return phi;
}

}  // namespace treecode
