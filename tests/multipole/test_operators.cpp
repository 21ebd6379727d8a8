// Numerical validation of the multipole operator set: every operator is
// checked against direct summation, and the translations are checked for
// consistency with one another. These tests gate the whole library: the
// treecode's correctness reduces to these identities plus tree logic.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "multipole/error_bounds.hpp"
#include "multipole/operators.hpp"

namespace treecode {
namespace {

struct Cloud {
  std::vector<Vec3> pos;
  std::vector<double> q;
  Vec3 center;
  double radius = 0.0;   // max distance of a source from center
  double abs_charge = 0.0;
};

/// Random charges inside a sphere of radius `a` about `center`.
Cloud make_cloud(std::uint64_t seed, const Vec3& center, double a, int n,
                 bool mixed_sign = true) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Cloud c;
  c.center = center;
  for (int i = 0; i < n; ++i) {
    Vec3 d;
    do {
      d = {u(rng), u(rng), u(rng)};
    } while (norm2(d) > 1.0);
    d *= a;
    c.pos.push_back(center + d);
    const double q = mixed_sign ? u(rng) : std::abs(u(rng)) + 0.1;
    c.q.push_back(q);
    c.radius = std::max(c.radius, norm(d));
    c.abs_charge += std::abs(q);
  }
  return c;
}

double direct_potential(const Cloud& c, const Vec3& point) {
  return p2p(point, c.pos, c.q);
}

TEST(P2M_M2P, ConvergesToDirectSumWithDegree) {
  const Cloud c = make_cloud(42, {0.3, -0.2, 0.1}, 0.5, 60);
  const Vec3 point{2.5, 1.0, -0.7};
  const double exact = direct_potential(c, point);
  double prev_err = std::numeric_limits<double>::infinity();
  for (int p : {2, 4, 8, 12, 16}) {
    MultipoleExpansion m(p);
    p2m(c.center, c.pos, c.q, m);
    const double approx = m2p(m, c.center, point);
    const double err = std::abs(approx - exact);
    EXPECT_LT(err, prev_err * 1.05) << "error should not grow with degree, p=" << p;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-10);
}

TEST(P2M_M2P, RespectsTheorem1Bound) {
  // Property sweep: the measured truncation error never exceeds the
  // Theorem 1 bound, across random clouds, eval distances, and degrees.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int trial = 0; trial < 40; ++trial) {
    const double a = 0.2 + 0.6 * u(rng);
    const Cloud c = make_cloud(100 + trial, {u(rng), u(rng), u(rng)}, a, 30);
    const double r = c.radius * (1.5 + 3.0 * u(rng));
    // random direction eval point at distance r from the center
    Vec3 dir{u(rng) - 0.5, u(rng) - 0.5, u(rng) - 0.5};
    if (norm(dir) == 0.0) dir = {1, 0, 0};
    const Vec3 point = c.center + normalized(dir) * r;
    const double exact = direct_potential(c, point);
    for (int p : {1, 3, 6, 10}) {
      MultipoleExpansion m(p);
      p2m(c.center, c.pos, c.q, m);
      const double err = std::abs(m2p(m, c.center, point) - exact);
      const double bound = multipole_error_bound(c.abs_charge, c.radius, r, p);
      EXPECT_LE(err, bound * (1.0 + 1e-9))
          << "trial=" << trial << " p=" << p << " r/a=" << r / c.radius;
    }
  }
}

TEST(M2M, ExactForEqualDegrees) {
  // Multipole-to-multipole is exact order by order: translating a degree-p
  // expansion must match the degree-p expansion built directly about the
  // new center.
  const Cloud c = make_cloud(3, {0.1, 0.2, -0.1}, 0.4, 40);
  const int p = 10;
  MultipoleExpansion m_src(p);
  p2m(c.center, c.pos, c.q, m_src);

  const Vec3 new_center{-0.3, 0.6, 0.2};
  MultipoleExpansion m_shifted(p);
  m2m(m_src, c.center, m_shifted, new_center);

  MultipoleExpansion m_direct(p);
  p2m(new_center, c.pos, c.q, m_direct);

  for (int n = 0; n <= p; ++n) {
    for (int m = 0; m <= n; ++m) {
      EXPECT_NEAR(std::abs(m_shifted.coeff(n, m) - m_direct.coeff(n, m)), 0.0, 1e-9)
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(M2M, CoincidentCentersAddsCoefficients) {
  const Cloud c = make_cloud(11, {0, 0, 0}, 0.3, 10);
  MultipoleExpansion m(6);
  p2m(c.center, c.pos, c.q, m);
  MultipoleExpansion dst(6);
  m2m(m, c.center, dst, c.center);
  m2m(m, c.center, dst, c.center);
  for (int n = 0; n <= 6; ++n) {
    for (int k = 0; k <= n; ++k) {
      EXPECT_NEAR(std::abs(dst.coeff(n, k) - 2.0 * m.coeff(n, k)), 0.0, 1e-12);
    }
  }
}

TEST(M2L_L2P, MatchesDirectSum) {
  const Cloud c = make_cloud(5, {0.0, 0.0, 0.0}, 0.5, 50);
  const Vec3 local_center{3.0, 0.5, -0.4};
  const int p = 14;
  MultipoleExpansion m(p);
  p2m(c.center, c.pos, c.q, m);
  LocalExpansion l(p);
  m2l(m, c.center, l, local_center);
  // Evaluate at several points near the local center (within its sphere).
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> u(-0.3, 0.3);
  for (int i = 0; i < 10; ++i) {
    const Vec3 point = local_center + Vec3{u(rng), u(rng), u(rng)};
    const double exact = direct_potential(c, point);
    EXPECT_NEAR(l2p(l, local_center, point), exact, 1e-7 * std::abs(exact) + 1e-9);
  }
}

TEST(L2L, ConsistentWithM2LToFinalCenter) {
  // M2L to center A then L2L to center B must agree (up to truncation)
  // with evaluating either local expansion at shared points near B.
  const Cloud c = make_cloud(17, {0.0, 0.0, 0.0}, 0.5, 40);
  const Vec3 a_center{4.0, 0.0, 0.0};
  const Vec3 b_center{4.3, 0.2, -0.1};
  const int p = 14;
  MultipoleExpansion m(p);
  p2m(c.center, c.pos, c.q, m);
  LocalExpansion la(p);
  m2l(m, c.center, la, a_center);
  LocalExpansion lb(p);
  l2l(la, a_center, lb, b_center);

  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> u(-0.15, 0.15);
  for (int i = 0; i < 10; ++i) {
    const Vec3 point = b_center + Vec3{u(rng), u(rng), u(rng)};
    const double via_a = l2p(la, a_center, point);
    const double via_b = l2p(lb, b_center, point);
    EXPECT_NEAR(via_b, via_a, 1e-9 * std::abs(via_a) + 1e-11);
    const double exact = direct_potential(c, point);
    EXPECT_NEAR(via_b, exact, 1e-6 * std::abs(exact) + 1e-9);
  }
}

TEST(M2P_Grad, MatchesDirectForce) {
  const Cloud c = make_cloud(23, {0.2, -0.1, 0.3}, 0.5, 50);
  const int p = 16;
  MultipoleExpansion m(p);
  p2m(c.center, c.pos, c.q, m);
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int i = 0; i < 12; ++i) {
    Vec3 dir{u(rng), u(rng), u(rng)};
    if (norm(dir) == 0.0) dir = {1, 0, 0};
    const Vec3 point = c.center + normalized(dir) * 2.5;
    const PotentialGrad approx = m2p_grad(m, c.center, point);
    const PotentialGrad exact = p2p_grad(point, c.pos, c.q);
    EXPECT_NEAR(approx.potential, exact.potential, 1e-9);
    EXPECT_NEAR(approx.gradient.x, exact.gradient.x, 1e-8);
    EXPECT_NEAR(approx.gradient.y, exact.gradient.y, 1e-8);
    EXPECT_NEAR(approx.gradient.z, exact.gradient.z, 1e-8);
  }
}

TEST(M2P_Grad, PoleSafeOnZAxis) {
  // Evaluation points exactly on the +z/-z axis hit sin(theta) = 0; the
  // pole-safe derivative arrays must still produce the right gradient.
  const Cloud c = make_cloud(29, {0.0, 0.0, 0.0}, 0.4, 30);
  const int p = 14;
  MultipoleExpansion m(p);
  p2m(c.center, c.pos, c.q, m);
  for (const Vec3 point : {Vec3{0, 0, 3.0}, Vec3{0, 0, -3.0}}) {
    const PotentialGrad approx = m2p_grad(m, c.center, point);
    const PotentialGrad exact = p2p_grad(point, c.pos, c.q);
    EXPECT_NEAR(approx.potential, exact.potential, 1e-9);
    EXPECT_NEAR(approx.gradient.x, exact.gradient.x, 1e-8);
    EXPECT_NEAR(approx.gradient.y, exact.gradient.y, 1e-8);
    EXPECT_NEAR(approx.gradient.z, exact.gradient.z, 1e-8);
  }
}

TEST(L2P_Grad, MatchesDirectForce) {
  const Cloud c = make_cloud(37, {0.0, 0.0, 0.0}, 0.5, 40);
  const Vec3 local_center{0.0, 3.5, 0.0};
  const int p = 16;
  MultipoleExpansion m(p);
  p2m(c.center, c.pos, c.q, m);
  LocalExpansion l(p);
  m2l(m, c.center, l, local_center);
  std::mt19937_64 rng(41);
  std::uniform_real_distribution<double> u(-0.25, 0.25);
  for (int i = 0; i < 10; ++i) {
    const Vec3 point = local_center + Vec3{u(rng), u(rng), u(rng)};
    const PotentialGrad approx = l2p_grad(l, local_center, point);
    const PotentialGrad exact = p2p_grad(point, c.pos, c.q);
    EXPECT_NEAR(approx.potential, exact.potential, 1e-7);
    EXPECT_NEAR(approx.gradient.x, exact.gradient.x, 1e-6);
    EXPECT_NEAR(approx.gradient.y, exact.gradient.y, 1e-6);
    EXPECT_NEAR(approx.gradient.z, exact.gradient.z, 1e-6);
  }
}

TEST(L2P_Grad, WellDefinedAtExpansionCenter) {
  const Cloud c = make_cloud(43, {0.0, 0.0, 0.0}, 0.5, 30);
  const Vec3 local_center{3.0, -1.0, 2.0};
  MultipoleExpansion m(12);
  p2m(c.center, c.pos, c.q, m);
  LocalExpansion l(12);
  m2l(m, c.center, l, local_center);
  const PotentialGrad approx = l2p_grad(l, local_center, local_center);
  const PotentialGrad exact = p2p_grad(local_center, c.pos, c.q);
  EXPECT_NEAR(approx.potential, exact.potential, 1e-8);
  EXPECT_NEAR(approx.gradient.x, exact.gradient.x, 1e-7);
  EXPECT_NEAR(approx.gradient.y, exact.gradient.y, 1e-7);
  EXPECT_NEAR(approx.gradient.z, exact.gradient.z, 1e-7);
}

TEST(LowerDegreeSource, TranslationsTruncateGracefully) {
  // The adaptive method stores different degrees per node; translating a
  // low-degree source into a higher-degree target must reproduce the
  // low-degree information exactly and leave higher orders at zero
  // contribution from the missing source orders (not garbage).
  const Cloud c = make_cloud(47, {0.1, 0.1, 0.1}, 0.3, 20);
  MultipoleExpansion m_lo(4);
  p2m(c.center, c.pos, c.q, m_lo);
  MultipoleExpansion dst(9);
  const Vec3 new_center{0.5, -0.2, 0.0};
  m2m(m_lo, c.center, dst, new_center);
  for (int n = 0; n <= 9; ++n) {
    for (int k = 0; k <= n; ++k) {
      EXPECT_TRUE(std::isfinite(dst.coeff(n, k).real()));
      EXPECT_TRUE(std::isfinite(dst.coeff(n, k).imag()));
    }
  }
  // Far-field evaluation should match the degree-4 direct expansion about
  // the new center to within the degree-4 truncation error of the shift.
  MultipoleExpansion m_direct4(4);
  p2m(new_center, c.pos, c.q, m_direct4);
  const Vec3 point{5.0, 5.0, 5.0};
  const double via_shift = m2p(dst, new_center, point);
  const double via_direct = m2p(m_direct4, new_center, point);
  EXPECT_NEAR(via_shift, via_direct, 5e-3 * std::abs(via_direct) + 1e-9);
}

TEST(P2M_Dipole, ConvergesToDirectDipoleSum) {
  std::mt19937_64 rng(53);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<Vec3> pos;
  std::vector<Vec3> mom;
  const Vec3 center{0.1, 0.2, -0.1};
  for (int i = 0; i < 30; ++i) {
    pos.push_back(center + 0.4 * Vec3{u(rng), u(rng), u(rng)});
    mom.push_back({u(rng), u(rng), u(rng)});
  }
  const Vec3 point{2.5, 1.0, -0.7};
  const double exact = p2p_dipole(point, pos, mom);
  double prev = 1e9;
  for (int p : {2, 4, 8, 12, 16}) {
    MultipoleExpansion m(p);
    p2m_dipole(center, pos, mom, m);
    const double err = std::abs(m2p(m, center, point) - exact);
    EXPECT_LT(err, prev * 1.05) << "p=" << p;
    prev = err;
  }
  EXPECT_LT(prev, 1e-9);
}

TEST(P2M_Dipole, MatchesFiniteDifferenceOfMonopoles) {
  // A dipole is the limit of two opposite charges: +q at y + h/2, -q at
  // y - h/2 with moment q h. Compare expansions.
  const Vec3 center{0, 0, 0};
  const Vec3 y{0.2, -0.1, 0.3};
  const Vec3 dir = normalized({1.0, 2.0, -0.5});
  const double h = 1e-6;
  const double q = 1.0 / h;  // moment = q * h * dir = dir
  const int p = 8;
  MultipoleExpansion dip(p);
  const std::vector<Vec3> dpos{y};
  const std::vector<Vec3> dmom{dir};
  p2m_dipole(center, dpos, dmom, dip);
  MultipoleExpansion fd(p);
  const std::vector<Vec3> mpos{y + dir * (0.5 * h), y - dir * (0.5 * h)};
  const std::vector<double> mq{q, -q};
  p2m(center, mpos, mq, fd);
  for (int n = 0; n <= p; ++n) {
    for (int m = 0; m <= n; ++m) {
      EXPECT_NEAR(std::abs(dip.coeff(n, m) - fd.coeff(n, m)), 0.0,
                  1e-5 * (1.0 + std::abs(fd.coeff(n, m))))
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(P2M_Dipole, PoleSafeForSourcesOnZAxis) {
  const Vec3 center{0, 0, 0};
  const std::vector<Vec3> pos{{0, 0, 0.3}, {0, 0, -0.2}};
  const std::vector<Vec3> mom{{1.0, -0.5, 0.7}, {0.2, 0.9, -1.0}};
  const int p = 10;
  MultipoleExpansion m(p);
  p2m_dipole(center, pos, mom, m);
  const Vec3 point{1.5, 1.0, 2.0};
  EXPECT_NEAR(m2p(m, center, point), p2p_dipole(point, pos, mom), 1e-8);
}

TEST(P2P_Dipole, PointDipoleClosedForm) {
  // Dipole (0,0,1) at origin: phi(x) = z/|x|^3.
  const std::vector<Vec3> pos{{0, 0, 0}};
  const std::vector<Vec3> mom{{0, 0, 1}};
  EXPECT_NEAR(p2p_dipole({0, 0, 2}, pos, mom), 2.0 / 8.0, 1e-15);
  EXPECT_NEAR(p2p_dipole({2, 0, 0}, pos, mom), 0.0, 1e-15);
  EXPECT_NEAR(p2p_dipole({0, 0, -2}, pos, mom), -0.25, 1e-15);
  // Coincident evaluation point is skipped.
  EXPECT_DOUBLE_EQ(p2p_dipole({0, 0, 0}, pos, mom), 0.0);
}

TEST(P2P, SkipsSelfInteraction) {
  std::vector<Vec3> pos{{0, 0, 0}, {1, 0, 0}};
  std::vector<double> q{2.0, 3.0};
  EXPECT_DOUBLE_EQ(p2p({0, 0, 0}, pos, q), 3.0);
  const PotentialGrad g = p2p_grad({0, 0, 0}, pos, q);
  EXPECT_DOUBLE_EQ(g.potential, 3.0);
  EXPECT_DOUBLE_EQ(g.gradient.x, 3.0);  // grad(3/|x-e1|) at 0 is +3 e1... sign check below
}

TEST(P2P_Grad, PointChargeGradientSign) {
  // Phi(x) = q/|x - s|; at x on the +x side of s the potential decreases
  // with x, so dPhi/dx < 0 for positive q.
  std::vector<Vec3> pos{{0, 0, 0}};
  std::vector<double> q{1.0};
  const PotentialGrad g = p2p_grad({2, 0, 0}, pos, q);
  EXPECT_NEAR(g.potential, 0.5, 1e-15);
  EXPECT_NEAR(g.gradient.x, -0.25, 1e-15);
  EXPECT_NEAR(g.gradient.y, 0.0, 1e-15);
  EXPECT_NEAR(g.gradient.z, 0.0, 1e-15);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(FusedM2P, BatchEqualsScalarBitwise) {
  // K columns share one direction and one harmonic recurrence: column c
  // must carry the bits of its own m2p() at every degree and every K. The
  // points include both z-axis directions (e^{i phi} = 1) and offsets with
  // a -0.0 component, which put signed zeros into e^{i phi} and so into
  // every phase product; the columns' coefficients are scaled by 1e+-150.
  constexpr std::size_t kColumns = 8;
  const Vec3 center{0.0, 0.0, 0.0};
  const Cloud c = make_cloud(21, center, 0.5, 24);
  const std::vector<Vec3> points = {{2.5, 1.0, -0.7}, {0.0, 0.0, 3.3},   {-0.0, 0.0, -2.9},
                                    {-0.0, 2.1, 0.3}, {1.5, -0.0, -2.0}, {-3.0, -0.0, 0.0}};
  const double magnitudes[] = {1.0, 1e150, 1e-150};
  for (int p = 0; p <= kMaxDegree; ++p) {
    std::vector<MultipoleExpansion> m;
    for (std::size_t k = 0; k < kColumns; ++k) {
      std::vector<double> q = c.q;
      const double scale = ((k % 2 == 0 ? 1.0 : -1.0) + 0.25 * static_cast<double>(k)) *
                           magnitudes[k % std::size(magnitudes)];
      for (double& x : q) x *= scale;
      m.emplace_back(p);
      p2m(c.center, c.pos, q, m.back());
    }
    for (const Vec3& x : points) {
      for (std::size_t k = 1; k <= kColumns; ++k) {
        double out[kColumns];
        m2p_batch({m.data(), k}, c.center, x, {out, k});
        for (std::size_t col = 0; col < k; ++col) {
          const double single = m2p(m[col], c.center, x);
          ASSERT_TRUE(std::isfinite(single)) << "p=" << p << " col=" << col;
          EXPECT_EQ(bits(out[col]), bits(single))
              << "p=" << p << " K=" << k << " col=" << col << " point=" << x;
        }
      }
    }
  }
}

TEST(FusedP2M, BatchEqualsScalarBitwise) {
  // K charge columns over one pass of the harmonic recurrence per source:
  // column c's expansion must carry the bits of its own p2m(). Sources
  // include one at the center, two on the z axis and two with a -0.0
  // offset component; the columns' charges are scaled by 1e+-150.
  constexpr std::size_t kColumns = 8;
  Cloud c = make_cloud(27, {0.0, 0.0, 0.0}, 0.4, 16);
  for (const Vec3& off : {Vec3{0, 0, 0}, Vec3{0, 0, 0.25}, Vec3{-0.0, 0.0, -0.3},
                          Vec3{-0.0, 0.2, 0.1}, Vec3{0.15, -0.0, -0.05}}) {
    c.pos.push_back(c.center + off);
    c.q.push_back(0.7);
  }
  const double magnitudes[] = {1.0, 1e150, 1e-150};
  std::vector<std::vector<double>> q(kColumns, c.q);
  for (std::size_t k = 0; k < kColumns; ++k) {
    const double scale = ((k % 3 == 0 ? -1.0 : 1.0) + 0.5 * static_cast<double>(k)) *
                         magnitudes[k % std::size(magnitudes)];
    for (double& x : q[k]) x *= scale;
  }
  for (int p = 0; p <= kMaxDegree; ++p) {
    for (std::size_t k = 1; k <= kColumns; ++k) {
      std::vector<std::span<const double>> columns(q.begin(), q.begin() + static_cast<long>(k));
      std::vector<MultipoleExpansion> batch(k, MultipoleExpansion(p));
      p2m_batch(c.center, c.pos, columns, batch);
      for (std::size_t col = 0; col < k; ++col) {
        MultipoleExpansion single(p);
        p2m(c.center, c.pos, q[col], single);
        for (int n = 0; n <= p; ++n) {
          for (int m = 0; m <= n; ++m) {
            const Complex b = batch[col].coeff(n, m);
            const Complex want = single.coeff(n, m);
            ASSERT_TRUE(std::isfinite(want.real()) && std::isfinite(want.imag()))
                << "p=" << p << " n=" << n << " m=" << m;
            EXPECT_EQ(bits(b.real()), bits(want.real()))
                << "p=" << p << " K=" << k << " col=" << col << " n=" << n << " m=" << m;
            EXPECT_EQ(bits(b.imag()), bits(want.imag()))
                << "p=" << p << " K=" << k << " col=" << col << " n=" << n << " m=" << m;
          }
        }
      }
    }
  }
}

TEST(FusedM2P, PairKernelEqualsScalarBitwise) {
  // Each lane of m2p_pair() must carry the bits of its own m2p() at every
  // degree (the unrolled kernels up to 12 and the runtime-degree one above).
  // The lanes mix a z-axis direction (rho = 0, e^{i phi} = 1) with an
  // off-axis one, offsets with -0.0 components, equal centres (the batch
  // replay's column pairs) and coefficients scaled by 1e+-150.
  const std::vector<Vec3> points = {{-0.0, 0.0, 0.0}, {0.5, -0.0, -0.25}};
  const std::vector<Vec3> centers = {{0.0, 0.0, 2.5},  {0.5, 0.0, -1.95}, {1.3, -0.7, 2.0},
                                     {0.0, 1.9, 0.4},  {-2.2, 0.0, 0.9}};
  const double scales[] = {1.0, 1e150, 1e-150};
  for (int p = 0; p <= kMaxDegree; ++p) {
    std::vector<MultipoleExpansion> m;
    for (std::size_t c = 0; c < centers.size(); ++c) {
      const Cloud cloud = make_cloud(40 + c, centers[c], 0.3, 12);
      m.emplace_back(p);
      p2m(cloud.center, cloud.pos, cloud.q, m.back());
    }
    for (const Vec3& x : points) {
      for (std::size_t a = 0; a < centers.size(); ++a) {
        for (std::size_t b = 0; b < centers.size(); ++b) {
          for (std::size_t s = 0; s < std::size(scales); ++s) {
            MultipoleExpansion ma = m[a];
            MultipoleExpansion mb = m[b];
            for (Complex& v : ma.data()) v *= scales[s];
            for (Complex& v : mb.data()) v *= scales[(s + 1) % std::size(scales)];
            const std::array<double, 2> pair = m2p_pair(ma, centers[a], mb, centers[b], x);
            const double want_a = m2p(ma, centers[a], x);
            const double want_b = m2p(mb, centers[b], x);
            ASSERT_TRUE(std::isfinite(want_a) && std::isfinite(want_b)) << "p=" << p;
            EXPECT_EQ(bits(pair[0]), bits(want_a))
                << "p=" << p << " point=" << x << " a=" << a << " b=" << b << " s=" << s;
            EXPECT_EQ(bits(pair[1]), bits(want_b))
                << "p=" << p << " point=" << x << " a=" << a << " b=" << b << " s=" << s;
          }
        }
      }
    }
  }
}

/// p2m() as it ran before its two-lane kernel: one source at a time, the
/// q rho^n chain and then for_each_harmonic()'s Y_n^m folded as
/// coeff += q rho^n conj(Y). The lane kernel must reproduce its bits.
void reference_p2m(const Vec3& center, std::span<const Vec3> positions,
                   std::span<const double> charges, MultipoleExpansion& out) {
  const int p = out.degree();
  double qr[kMaxDegree + 1] = {};
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Direction u = direction_of(positions[i] - center);
    double rho_n = 1.0;
    for (int n = 0; n <= p; ++n) {
      qr[n] = charges[i] * rho_n;
      rho_n *= u.r;
    }
    for_each_harmonic(p, u, [&out, &qr](int n, int m, Complex y) {
      out.coeff(n, m) += qr[n] * std::conj(y);
    });
  }
}

TEST(FusedP2M, PairLanesEqualScalarBitwise) {
  // Every degree (the unrolled kernels up to 12 and the runtime-degree one
  // above), odd and even source counts (an odd count ends on a one-lane
  // call), and sources at the center (r = 0) and on the z axis on either
  // side (rho = 0, with -0.0 components) in either lane of a pair.
  Cloud c = make_cloud(31, {0.2, -0.1, 0.3}, 0.45, 17);
  const std::vector<Vec3> special = {{0, 0, 0}, {0, 0, 0.25}, {-0.0, 0.0, -0.3},
                                     {-0.0, 0.2, 0.1}, {0, 0, 0}};
  for (std::size_t k = 0; k < special.size(); ++k) {
    const auto at = static_cast<std::ptrdiff_t>(3 * k);  // lanes 0, 1, 0, 1, 0
    c.pos.insert(c.pos.begin() + at, c.center + special[k]);
    c.q.insert(c.q.begin() + at, k % 2 == 0 ? 0.7 : -1.3);
  }
  for (int p = 0; p <= kMaxDegree; ++p) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                                    std::size_t{12}, c.pos.size() - 1, c.pos.size()}) {
      const std::span<const Vec3> pos(c.pos.data(), count);
      const std::span<const double> q(c.q.data(), count);
      MultipoleExpansion lanes(p);
      p2m(c.center, pos, q, lanes);
      MultipoleExpansion scalar(p);
      reference_p2m(c.center, pos, q, scalar);
      for (int n = 0; n <= p; ++n) {
        for (int m = 0; m <= n; ++m) {
          const Complex a = lanes.coeff(n, m);
          const Complex b = scalar.coeff(n, m);
          ASSERT_TRUE(std::isfinite(b.real()) && std::isfinite(b.imag()))
              << "p=" << p << " n=" << n << " m=" << m;
          EXPECT_EQ(bits(a.real()), bits(b.real()))
              << "p=" << p << " count=" << count << " n=" << n << " m=" << m;
          EXPECT_EQ(bits(a.imag()), bits(b.imag()))
              << "p=" << p << " count=" << count << " n=" << n << " m=" << m;
        }
      }
    }
  }
}

TEST(FusedP2M, SourceAtTheCenterContributesOnlyTheMonopole) {
  // r = 0: M_0^0 = q Y_0^0 = q and r^n = 0 zeroes every n >= 1 term.
  const Vec3 center{0.4, -0.2, 0.9};
  const std::vector<Vec3> pos = {center};
  const std::vector<double> q = {-1.75};
  for (int p : {0, 1, 4, kMaxDegree}) {
    MultipoleExpansion m(p);
    p2m(center, pos, q, m);
    const std::span<const double> columns[] = {q};
    MultipoleExpansion batched(p);
    p2m_batch(center, pos, columns, {&batched, 1});
    EXPECT_EQ(m.coeff(0, 0), (Complex{-1.75, 0.0}));
    EXPECT_EQ(batched.coeff(0, 0), (Complex{-1.75, 0.0}));
    for (int n = 1; n <= p; ++n) {
      for (int k = 0; k <= n; ++k) {
        EXPECT_EQ(std::abs(m.coeff(n, k)), 0.0) << "p=" << p << " n=" << n << " m=" << k;
        EXPECT_EQ(std::abs(batched.coeff(n, k)), 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace treecode
