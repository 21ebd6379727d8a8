#include "multipole/legendre.hpp"

#include <cassert>

namespace treecode {

void legendre_all_derivs(int p, double x, double s, std::span<double> P, std::span<double> T,
                         std::span<double> U) {
  assert(P.size() >= tri_size(p));
  assert(T.size() >= tri_size(p));
  assert(U.size() >= tri_size(p));
  // Diagonal trackers: pmm = (-1)^m (2m-1)!! s^m, and for m >= 1
  // umm = (-1)^m (2m-1)!! s^(m-1) = P_m^m / s without dividing by s.
  double pmm = 1.0;
  double umm = 0.0;  // unused at m = 0
  for (int m = 0; m <= p; ++m) {
    const std::size_t imm = tri_index(m, m);
    P[imm] = pmm;
    if (m == 0) {
      T[imm] = 0.0;
      U[imm] = 0.0;
    } else {
      // d/dtheta [c s^m] = m c s^(m-1) x  with c = (-1)^m (2m-1)!!
      T[imm] = m * x * umm;
      U[imm] = umm;
    }
    if (m + 1 <= p) {
      const std::size_t i1 = tri_index(m + 1, m);
      P[i1] = x * (2 * m + 1) * pmm;
      // d/dtheta [x (2m+1) P_m^m] = (2m+1)(-s P_m^m + x T_m^m)
      T[i1] = (2 * m + 1) * (-s * pmm + x * T[imm]);
      U[i1] = m == 0 ? 0.0 : x * (2 * m + 1) * U[imm];
      for (int n = m + 2; n <= p; ++n) {
        const std::size_t in = tri_index(n, m);
        const std::size_t in1 = tri_index(n - 1, m);
        const std::size_t in2 = tri_index(n - 2, m);
        const double inv = 1.0 / (n - m);
        P[in] = (x * (2 * n - 1) * P[in1] - (n + m - 1) * P[in2]) * inv;
        T[in] = ((2 * n - 1) * (-s * P[in1] + x * T[in1]) - (n + m - 1) * T[in2]) * inv;
        U[in] = m == 0 ? 0.0 : (x * (2 * n - 1) * U[in1] - (n + m - 1) * U[in2]) * inv;
      }
    }
    // Advance to m+1: new diagonal = -(2m+1) s * pmm; new U-diagonal
    // (-1)^(m+1) (2m+1)!! s^m = -(2m+1) * pmm.
    umm = -(2 * m + 1) * pmm;
    pmm *= -(2 * m + 1) * s;
  }
}

}  // namespace treecode
