#include "multipole/operators.hpp"

#include <cassert>
#include <cmath>
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
/// order of m2p_apply_basis(), so on-the-fly and replayed M2P agree bitwise.
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

void p2m(const Vec3& center, std::span<const Vec3> positions, std::span<const double> charges,
         MultipoleExpansion& out) {
  assert(positions.size() == charges.size());
  const int p = out.degree();
  assert(p >= 0 && p <= kMaxDegree);
  double qr[kMaxDegree + 1] = {};  // q rho^n of the current source
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Direction u = direction_of(positions[i] - center);
    double rho_n = 1.0;  // rho^n, advanced as p2m_basis stores it
    for (int n = 0; n <= p; ++n) {
      qr[n] = charges[i] * rho_n;
      rho_n *= u.r;
    }
    // M_n^m += q rho^n Y_n^{-m} = q rho^n conj(Y_n^m)
    for_each_harmonic(p, u, [&out, &qr](int n, int m, Complex y) {
      out.coeff(n, m) += qr[n] * std::conj(y);
    });
  }
}

std::size_t p2m_basis_size(int p, std::size_t count) noexcept {
  return count * (static_cast<std::size_t>(p) + 1 + 2 * tri_size(p));
}

void p2m_basis(int p, const Vec3& center, std::span<const Vec3> positions,
               std::span<double> out) {
  assert(p >= 0 && p <= kMaxDegree);
  assert(out.size() >= p2m_basis_size(p, positions.size()));
  double* rho = out.data();
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Direction u = direction_of(positions[i] - center);
    double rho_n = 1.0;
    for (int n = 0; n <= p; ++n) {
      rho[n] = rho_n;
      rho_n *= u.r;
    }
    double* Yc = rho + p + 1;
    for_each_harmonic(p, u, [Yc](int n, int m, Complex y) {
      // Stored pre-conjugated: negation is exact, so the apply's
      // qr * stored_im reproduces qr * (-Y_im) bitwise.
      const std::size_t k = 2 * tri_index(n, m);
      Yc[k] = y.real();
      Yc[k + 1] = -y.imag();
    });
    rho = Yc + 2 * tri_size(p);
  }
}

void p2m_apply_basis(std::span<const double> charges, const double* basis,
                     MultipoleExpansion& out) noexcept {
  const int p = out.degree();
  const std::size_t stride = static_cast<std::size_t>(p) + 1 + 2 * tri_size(p);
  for (std::size_t i = 0; i < charges.size(); ++i) {
    const double* rho = basis + i * stride;
    const double* Yc = rho + p + 1;
    const double q = charges[i];
    for (int n = 0; n <= p; ++n) {
      const double qr = q * rho[n];
      for (int m = 0; m <= n; ++m) {
        const std::size_t k = 2 * tri_index(n, m);
        // Same two products and component-wise add as p2m's
        // `coeff += qr * conj(Y)`.
        out.coeff(n, m) += Complex{qr * Yc[k], qr * Yc[k + 1]};
      }
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

std::size_t m2p_basis_size(int p) noexcept {
  return 1 + 2 * tri_size(p);
}

void m2p_basis(int p, const Vec3& center, const Vec3& point, std::span<double> out) {
  assert(out.size() >= m2p_basis_size(p));
  const Direction u = direction_of(point - center);
  assert(u.r > 0.0);
  out[0] = 1.0 / u.r;
  double* Y = out.data() + 1;
  for_each_harmonic(p, u, [Y](int n, int m, Complex y) {
    const std::size_t k = 2 * tri_index(n, m);
    Y[k] = y.real();
    Y[k + 1] = y.imag();
  });
}

double m2p_apply_basis(const MultipoleExpansion& mexp, const double* basis) noexcept {
  const int p = mexp.degree();
  const double inv_r = basis[0];
  const double* Y = basis + 1;
  double phi = 0.0;
  double rpow = inv_r;  // 1/r^(n+1)
  for (int n = 0; n <= p; ++n) {
    // The same products, in the same order, as m2p()'s degree_brackets on
    // the stored Y doubles, keeping the accumulation bitwise-equal to m2p().
    const std::size_t i0 = 2 * tri_index(n, 0);
    const Complex c0 = mexp.coeff(n, 0);
    double bracket = c0.real() * Y[i0] - c0.imag() * Y[i0 + 1];
    for (int m = 1; m <= n; ++m) {
      const std::size_t im = 2 * tri_index(n, m);
      const Complex c = mexp.coeff(n, m);
      bracket += 2.0 * (c.real() * Y[im] - c.imag() * Y[im + 1]);
    }
    phi += bracket * rpow;
    rpow *= inv_r;
  }
  return phi;
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
