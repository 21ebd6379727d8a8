#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "geom/vec3.hpp"
#include "multipole/harmonics.hpp"

namespace treecode {
namespace {

/// Direction of the unit vector with polar angles (theta, phi).
Direction unit(double theta, double phi) {
  return direction_of({std::sin(theta) * std::cos(phi), std::sin(theta) * std::sin(phi),
                       std::cos(theta)});
}

TEST(Factorial, TableValues) {
  EXPECT_DOUBLE_EQ(factorial(0), 1.0);
  EXPECT_DOUBLE_EQ(factorial(1), 1.0);
  EXPECT_DOUBLE_EQ(factorial(5), 120.0);
  EXPECT_DOUBLE_EQ(factorial(10), 3628800.0);
  EXPECT_TRUE(std::isfinite(factorial(2 * kMaxDegree)));
}

TEST(ACoeff, ValuesAndSymmetry) {
  EXPECT_DOUBLE_EQ(a_coeff(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a_coeff(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a_coeff(1, 1), -1.0 / std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(a_coeff(2, 1), 1.0 / std::sqrt(6.0));
  EXPECT_DOUBLE_EQ(a_coeff(3, -2), a_coeff(3, 2));
}

TEST(Ipow, Cycle) {
  EXPECT_EQ(ipow(0), (Complex{1, 0}));
  EXPECT_EQ(ipow(1), (Complex{0, 1}));
  EXPECT_EQ(ipow(2), (Complex{-1, 0}));
  EXPECT_EQ(ipow(3), (Complex{0, -1}));
  EXPECT_EQ(ipow(4), (Complex{1, 0}));
  EXPECT_EQ(ipow(-1), (Complex{0, -1}));
  EXPECT_EQ(ipow(-2), (Complex{-1, 0}));
  EXPECT_EQ(ipow(-7), (Complex{0, 1}));
}

TEST(Harmonics, AdditionTheorem) {
  // The addition theorem P_n(cos gamma) = sum_m Y_n^-m(a,b) Y_n^m(t,p)
  // underpins the multipole expansion. Verify it for random direction
  // pairs; gamma is the angle between them.
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const int p = 12;
  std::vector<Complex> Y1(tri_size(p)), Y2(tri_size(p));
  for (int trial = 0; trial < 25; ++trial) {
    Vec3 v1{u(rng), u(rng), u(rng)};
    Vec3 v2{u(rng), u(rng), u(rng)};
    if (norm(v1) == 0.0 || norm(v2) == 0.0) continue;
    v1 = normalized(v1);
    v2 = normalized(v2);
    eval_harmonics(p, direction_of(v1), Y1);
    eval_harmonics(p, direction_of(v2), Y2);
    const double cg = std::clamp(dot(v1, v2), -1.0, 1.0);
    for (int n = 0; n <= p; ++n) {
      // m = 0 term + 2 Re(sum_{m>=1} conj(Y1) Y2)
      Complex sum = std::conj(Y1[tri_index(n, 0)]) * Y2[tri_index(n, 0)];
      for (int m = 1; m <= n; ++m) {
        sum += 2.0 * (std::conj(Y1[tri_index(n, m)]) * Y2[tri_index(n, m)]).real();
      }
      EXPECT_NEAR(sum.real(), std::legendre(n, cg), 1e-10) << "n=" << n;
      EXPECT_NEAR(sum.imag(), 0.0, 1e-10);
    }
  }
}

TEST(Harmonics, YZeroZeroIsOne) {
  std::vector<Complex> Y(tri_size(0));
  eval_harmonics(0, unit(1.1, 2.2), Y);
  EXPECT_NEAR(std::abs(Y[0] - Complex{1.0, 0.0}), 0.0, 1e-15);
}

TEST(Harmonics, DerivativeMatchesFiniteDifference) {
  const int p = 8;
  const double h = 1e-6;
  std::vector<Complex> Y(tri_size(p)), dY(tri_size(p)), Ys(tri_size(p));
  std::vector<Complex> Yp(tri_size(p)), Ym(tri_size(p));
  for (double theta : {0.4, 1.3, 2.6}) {
    const double phi = 0.9;
    eval_harmonics_derivs(p, unit(theta, phi), Y, dY, Ys);
    eval_harmonics(p, unit(theta + h, phi), Yp);
    eval_harmonics(p, unit(theta - h, phi), Ym);
    for (std::size_t i = 0; i < tri_size(p); ++i) {
      const Complex fd = (Yp[i] - Ym[i]) / (2 * h);
      EXPECT_NEAR(std::abs(dY[i] - fd), 0.0, 1e-5) << "i=" << i << " theta=" << theta;
    }
  }
}

TEST(Harmonics, YsinTimesSinEqualsY) {
  const int p = 8;
  std::vector<Complex> Y(tri_size(p)), dY(tri_size(p)), Ys(tri_size(p));
  const double theta = 0.77;
  eval_harmonics_derivs(p, unit(theta, 1.3), Y, dY, Ys);
  for (int n = 0; n <= p; ++n) {
    EXPECT_EQ(Ys[tri_index(n, 0)], (Complex{0, 0}));
    for (int m = 1; m <= n; ++m) {
      EXPECT_NEAR(std::abs(Ys[tri_index(n, m)] * std::sin(theta) - Y[tri_index(n, m)]), 0.0,
                  1e-11);
    }
  }
}

TEST(Harmonics, UnitPhiDependence) {
  // Y_n^m(theta, phi) = Y_n^m(theta, 0) * e^{i m phi}
  const int p = 6;
  std::vector<Complex> Y0(tri_size(p)), Y1(tri_size(p));
  const double theta = 1.1;
  const double phi = 0.6;
  eval_harmonics(p, unit(theta, 0.0), Y0);
  eval_harmonics(p, unit(theta, phi), Y1);
  for (int n = 0; n <= p; ++n) {
    for (int m = 0; m <= n; ++m) {
      const Complex expected =
          Y0[tri_index(n, m)] * Complex{std::cos(m * phi), std::sin(m * phi)};
      EXPECT_NEAR(std::abs(Y1[tri_index(n, m)] - expected), 0.0, 1e-12);
    }
  }
}

/// splitmix64 step: advances `state` and returns the next 64-bit draw.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Uniform double in [-1, 1) from the top 53 bits of a draw.
double unit_draw(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-52 - 1.0;
}

TEST(Harmonics, CartesianRecurrenceMatchesAssocLegendreReference) {
  // Independent reference, in long double from the polar angles:
  //   Y_n^m = (-1)^m assoc_legendre(n, m, cos theta) y_norm(n, m) e^{i m phi}
  // (std::assoc_legendre omits the Condon-Shortley phase). Near a zero of
  // P_n^m any recurrence carries an absolute error at the rounding level of
  // the column it runs down, so each value is held to 1e-13 relative to the
  // largest |Y| of its m-column (and to exact agreement where that is 0).
  const int p = 20;
  // Edge cases: the +-z axis, the xy-plane, -0.0 components. (Directions
  // just off the axis are left out: the reference's sqrt(1 - x^2) loses
  // the digits there that the Cartesian sin(theta) keeps.)
  std::vector<Vec3> dirs = {{0, 0, 1},        {0, 0, -1},      {0.6, 0.8, 0},   {-1, 0, 0},
                            {0, -1, 0},       {1, 1, 1e-17},   {-0.0, 0.0, 1},  {-0.0, -0.0, -1},
                            {0.3, -0.0, 0.4}, {-0.0, 0.7, -0.0}, {-0.5, -0.0, -0.0}};
  std::uint64_t state = 0x5eed;
  for (int i = 0; i < 200; ++i) {
    dirs.push_back({unit_draw(state), unit_draw(state), unit_draw(state)});
  }
  const std::size_t base = dirs.size();
  for (std::size_t i = 0; i < base; ++i) {
    dirs.push_back(dirs[i] * 1e-150);
    dirs.push_back(dirs[i] * 1e150);
  }
  std::vector<Complex> Y(tri_size(p));
  std::vector<std::complex<long double>> ref(tri_size(p));
  for (const Vec3& d : dirs) {
    if (norm(d) == 0.0) continue;
    eval_harmonics(p, direction_of(d), Y);
    const long double x = d.x, y = d.y, z = d.z;
    const long double ct = std::clamp(z / std::sqrt(x * x + y * y + z * z), -1.0L, 1.0L);
    const long double ph = std::atan2(y, x);
    for (int m = 0; m <= p; ++m) {
      long double column_scale = 0.0L;
      for (int n = m; n <= p; ++n) {
        const long double sign = (m % 2 == 0) ? 1.0L : -1.0L;
        const long double v = sign *
                              std::assoc_legendre(static_cast<unsigned>(n),
                                                  static_cast<unsigned>(m), ct) *
                              y_norm(n, m);
        ref[tri_index(n, m)] = {v * std::cos(m * ph), v * std::sin(m * ph)};
        column_scale = std::max(column_scale, std::abs(v));
      }
      for (int n = m; n <= p; ++n) {
        const std::size_t k = tri_index(n, m);
        const long double err = std::abs(std::complex<long double>(Y[k].real(), Y[k].imag()) -
                                         ref[k]);
        ASSERT_TRUE(std::isfinite(Y[k].real()) && std::isfinite(Y[k].imag()));
        EXPECT_LE(err, 1e-13L * column_scale)
            << "d=" << d << " n=" << n << " m=" << m << " Y=" << Y[k];
      }
    }
  }
}

TEST(Harmonics, DirectionAtOriginAndOnTheAxisIsPlusZConvention) {
  const Direction o = direction_of({0, 0, 0});
  EXPECT_EQ(o.r, 0.0);
  EXPECT_EQ(o.cos_theta, 1.0);
  EXPECT_EQ(o.sin_theta, 0.0);
  EXPECT_EQ(o.eiphi, (Complex{1.0, 0.0}));
  const Direction down = direction_of({-0.0, 0.0, -2.0});
  EXPECT_EQ(down.r, 2.0);
  EXPECT_EQ(down.cos_theta, -1.0);
  EXPECT_EQ(down.sin_theta, 0.0);
  EXPECT_EQ(down.eiphi, (Complex{1.0, 0.0}));
  // Finite harmonics at the origin: Y_n^0 = 1, every m >= 1 vanishes.
  const int p = 8;
  std::vector<Complex> Y(tri_size(p));
  eval_harmonics(p, o, Y);
  for (int n = 0; n <= p; ++n) {
    EXPECT_NEAR(Y[tri_index(n, 0)].real(), 1.0, 1e-14);
    for (int m = 1; m <= n; ++m) EXPECT_EQ(std::abs(Y[tri_index(n, m)]), 0.0);
  }
}

TEST(Harmonics, NormTableIsBitIdenticalToTheFactorialFormula) {
  for (int n = 0; n <= kMaxDegree; ++n) {
    for (int m = 0; m <= n; ++m) {
      EXPECT_EQ(y_norm(n, m), std::sqrt(factorial(n - m) / factorial(n + m)))
          << "n=" << n << " m=" << m;
    }
  }
}

}  // namespace
}  // namespace treecode
