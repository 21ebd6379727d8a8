#include "multipole/harmonics.hpp"

#include <cassert>
#include <vector>

namespace treecode {

namespace {

constexpr int kFactTableSize = 2 * kMaxDegree + 1;

const std::array<double, kFactTableSize>& factorial_table() {
  static const std::array<double, kFactTableSize> table = [] {
    std::array<double, kFactTableSize> t{};
    t[0] = 1.0;
    for (int k = 1; k < kFactTableSize; ++k) t[k] = t[k - 1] * k;
    return t;
  }();
  return table;
}

}  // namespace

namespace detail {

const HarmonicTables& harmonic_tables() noexcept {
  static const HarmonicTables tables = [] {
    HarmonicTables t{};
    for (int n = 0; n <= kMaxDegree; ++n) {
      for (int m = 0; m <= n; ++m) {
        const std::size_t i = tri_index(n, m);
        t.norm[i] = std::sqrt(factorial(n - m) / factorial(n + m));
        t.a[i] = n - m >= 2 ? static_cast<double>(2 * n - 1) / (n - m) : 0.0;
        t.b[i] = n - m >= 2 ? static_cast<double>(n + m - 1) / (n - m) : 0.0;
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace detail

double factorial(int k) noexcept {
  assert(k >= 0 && k < kFactTableSize);
  return factorial_table()[static_cast<std::size_t>(k)];
}

double a_coeff(int n, int m) noexcept {
  const int am = m < 0 ? -m : m;
  assert(am <= n && n <= kMaxDegree);
  const double sign = (n % 2 == 0) ? 1.0 : -1.0;
  return sign / std::sqrt(factorial(n - am) * factorial(n + am));
}

double y_norm(int n, int m) noexcept {
  assert(0 <= m && m <= n && n <= kMaxDegree);
  return detail::harmonic_tables().norm[tri_index(n, m)];
}

Complex ipow(int k) noexcept {
  int r = k % 4;
  if (r < 0) r += 4;
  switch (r) {
    case 0:
      return {1.0, 0.0};
    case 1:
      return {0.0, 1.0};
    case 2:
      return {-1.0, 0.0};
    default:
      return {0.0, -1.0};
  }
}

void eval_harmonics(int p, const Direction& u, std::span<Complex> Y) {
  assert(p >= 0 && p <= kMaxDegree);
  assert(Y.size() >= tri_size(p));
  for_each_harmonic(p, u, [Y](int n, int m, Complex y) { Y[tri_index(n, m)] = y; });
}

void eval_harmonics_derivs(int p, const Direction& u, std::span<Complex> Y,
                           std::span<Complex> dY, std::span<Complex> Ysin) {
  assert(p >= 0 && p <= kMaxDegree);
  assert(Y.size() >= tri_size(p));
  assert(dY.size() >= tri_size(p));
  assert(Ysin.size() >= tri_size(p));
  thread_local std::vector<double> P, T, U;
  P.resize(tri_size(p));
  T.resize(tri_size(p));
  U.resize(tri_size(p));
  legendre_all_derivs(p, u.cos_theta, u.sin_theta, P, T, U);
  const double* norm = detail::harmonic_tables().norm.data();
  Complex em{1.0, 0.0};  // e^{i m phi}
  for (int m = 0; m <= p; ++m) {
    for (int n = m; n <= p; ++n) {
      const std::size_t i = tri_index(n, m);
      Y[i] = norm[i] * P[i] * em;
      dY[i] = norm[i] * T[i] * em;
      Ysin[i] = norm[i] * U[i] * em;
    }
    em *= u.eiphi;
  }
}

}  // namespace treecode
