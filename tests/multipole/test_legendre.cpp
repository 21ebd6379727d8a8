#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "multipole/harmonics.hpp"
#include "multipole/legendre.hpp"

namespace treecode {
namespace {

std::vector<double> eval_P(int p, double theta) {
  std::vector<double> P(tri_size(p)), T(tri_size(p)), U(tri_size(p));
  legendre_all_derivs(p, std::cos(theta), std::sin(theta), P, T, U);
  return P;
}

TEST(TriIndex, PackedLayout) {
  EXPECT_EQ(tri_index(0, 0), 0u);
  EXPECT_EQ(tri_index(1, 0), 1u);
  EXPECT_EQ(tri_index(1, 1), 2u);
  EXPECT_EQ(tri_index(2, 0), 3u);
  EXPECT_EQ(tri_index(3, 3), 9u);
  EXPECT_EQ(tri_size(0), 1u);
  EXPECT_EQ(tri_size(3), 10u);
}

TEST(Legendre, KnownLowDegreeValues) {
  const double theta = 0.7;
  const double x = std::cos(theta);
  const double s = std::sin(theta);
  const auto P = eval_P(3, theta);
  EXPECT_NEAR(P[tri_index(0, 0)], 1.0, 1e-14);
  EXPECT_NEAR(P[tri_index(1, 0)], x, 1e-14);
  EXPECT_NEAR(P[tri_index(1, 1)], -s, 1e-14);  // Condon-Shortley phase
  EXPECT_NEAR(P[tri_index(2, 0)], 0.5 * (3 * x * x - 1), 1e-14);
  EXPECT_NEAR(P[tri_index(2, 1)], -3 * x * s, 1e-14);
  EXPECT_NEAR(P[tri_index(2, 2)], 3 * s * s, 1e-14);
  EXPECT_NEAR(P[tri_index(3, 0)], 0.5 * (5 * x * x * x - 3 * x), 1e-13);
  EXPECT_NEAR(P[tri_index(3, 3)], -15 * s * s * s, 1e-13);
}

TEST(Legendre, MatchesStdLegendreForMZero) {
  for (double theta : {0.1, 0.9, 1.5, 2.4, 3.0}) {
    const auto P = eval_P(10, theta);
    for (int n = 0; n <= 10; ++n) {
      EXPECT_NEAR(P[tri_index(n, 0)], std::legendre(n, std::cos(theta)), 1e-12)
          << "n=" << n << " theta=" << theta;
    }
  }
}

TEST(Legendre, MatchesStdAssocLegendre) {
  // std::assoc_legendre excludes the Condon-Shortley phase; ours includes
  // it, so compare with (-1)^m.
  for (double theta : {0.3, 1.0, 2.0}) {
    const auto P = eval_P(8, theta);
    for (int n = 0; n <= 8; ++n) {
      for (int m = 0; m <= n; ++m) {
        const double sign = (m % 2 == 0) ? 1.0 : -1.0;
        EXPECT_NEAR(P[tri_index(n, m)], sign * std::assoc_legendre(n, m, std::cos(theta)),
                    1e-10 * (1.0 + std::abs(P[tri_index(n, m)])))
            << "n=" << n << " m=" << m;
      }
    }
  }
}

TEST(Legendre, DerivativeMatchesFiniteDifference) {
  const int p = 12;
  const double h = 1e-6;
  for (double theta : {0.2, 0.8, 1.6, 2.7}) {
    std::vector<double> P(tri_size(p)), T(tri_size(p)), U(tri_size(p));
    legendre_all_derivs(p, std::cos(theta), std::sin(theta), P, T, U);
    const auto Pp = eval_P(p, theta + h);
    const auto Pm = eval_P(p, theta - h);
    for (int n = 0; n <= p; ++n) {
      for (int m = 0; m <= n; ++m) {
        const double fd = (Pp[tri_index(n, m)] - Pm[tri_index(n, m)]) / (2 * h);
        EXPECT_NEAR(T[tri_index(n, m)], fd, 1e-4 * (1.0 + std::abs(fd)))
            << "n=" << n << " m=" << m << " theta=" << theta;
      }
    }
  }
}

TEST(Legendre, UEqualsPOverSinAwayFromPoles) {
  const int p = 10;
  for (double theta : {0.3, 1.2, 2.5}) {
    std::vector<double> P(tri_size(p)), T(tri_size(p)), U(tri_size(p));
    legendre_all_derivs(p, std::cos(theta), std::sin(theta), P, T, U);
    for (int n = 0; n <= p; ++n) {
      EXPECT_DOUBLE_EQ(U[tri_index(n, 0)], 0.0);
      for (int m = 1; m <= n; ++m) {
        EXPECT_NEAR(U[tri_index(n, m)], P[tri_index(n, m)] / std::sin(theta),
                    1e-9 * (1.0 + std::abs(U[tri_index(n, m)])))
            << "n=" << n << " m=" << m;
      }
    }
  }
}

TEST(Legendre, PoleValuesAreFinite) {
  const int p = 15;
  for (double theta : {0.0, M_PI}) {
    std::vector<double> P(tri_size(p)), T(tri_size(p)), U(tri_size(p));
    legendre_all_derivs(p, std::cos(theta), std::sin(theta), P, T, U);
    for (std::size_t i = 0; i < tri_size(p); ++i) {
      EXPECT_TRUE(std::isfinite(P[i]));
      EXPECT_TRUE(std::isfinite(T[i]));
      EXPECT_TRUE(std::isfinite(U[i]));
    }
    // At the poles P_n^m = 0 for m >= 1 (sin^m factor). sin(pi) is ~1e-16
    // in floating point, so allow rounding-level residue.
    for (int n = 1; n <= p; ++n) {
      for (int m = 1; m <= n; ++m) {
        EXPECT_NEAR(P[tri_index(n, m)], 0.0, 1e-12);
      }
    }
  }
}

TEST(Legendre, ConsistentBetweenPlainAndDerivVersions) {
  // The plain recurrence is the one inside for_each_harmonic(); at phi = 0
  // it yields Y_n^m = y_norm(n, m) P_n^m.
  const int p = 9;
  const double theta = 1.234;
  std::vector<Complex> Y(tri_size(p));
  eval_harmonics(p, direction_of({std::sin(theta), 0.0, std::cos(theta)}), Y);
  std::vector<double> P2(tri_size(p)), T(tri_size(p)), U(tri_size(p));
  legendre_all_derivs(p, std::cos(theta), std::sin(theta), P2, T, U);
  for (int n = 0; n <= p; ++n) {
    for (int m = 0; m <= n; ++m) {
      const std::size_t i = tri_index(n, m);
      const double P1 = Y[i].real() / y_norm(n, m);
      // The two code paths order their arithmetic differently (the plain
      // one multiplies by tabulated (2n-1)/(n-m), (n+m-1)/(n-m), the deriv
      // version by 1/(n-m)); allow ulp-level drift.
      EXPECT_NEAR(P1, P2[i], 1e-13 * (1.0 + std::abs(P1)));
    }
  }
}

}  // namespace
}  // namespace treecode
