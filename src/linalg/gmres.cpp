#include "linalg/gmres.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "util/timer.hpp"
#include "obs/spans.hpp"

namespace treecode {

namespace {

double dot(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double nrm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

bool finite_vector(std::span<const double> a) {
  for (double v : a) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Relative threshold under which the Arnoldi residual norm counts as a
/// happy breakdown: w is numerically inside the current Krylov space.
constexpr double kBreakdownRel = 1e-14;

}  // namespace

const char* to_string(GmresFailure f) noexcept {
  switch (f) {
    case GmresFailure::kNone:
      return "none";
    case GmresFailure::kNonFiniteInput:
      return "non-finite input";
    case GmresFailure::kNonFiniteOperator:
      return "non-finite operator output";
    case GmresFailure::kStagnation:
      return "stagnation";
    case GmresFailure::kBreakdown:
      return "breakdown on singular system";
    case GmresFailure::kMaxIterations:
      return "max iterations";
  }
  return "?";
}

Preconditioner jacobi_preconditioner(std::vector<double> diagonal) {
  for (double& d : diagonal) {
    d = d == 0.0 ? 1.0 : 1.0 / d;
  }
  return [diag = std::move(diagonal)](std::span<const double> x, std::span<double> y) {
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = diag[i] * x[i];
  };
}

GmresResult gmres(const LinearOperator& A, std::span<const double> b, std::span<double> x,
                  const GmresOptions& options, const Preconditioner& precond) {
  if (A.rows() != A.cols()) throw std::invalid_argument("gmres: operator not square");
  const std::size_t n = A.rows();
  if (b.size() != n || x.size() != n) throw std::invalid_argument("gmres: size mismatch");
  const int m = options.restart > 0 ? options.restart : 10;

  const ScopedTimer solve_phase(obs::span::kGmresSolve);
  // Resolved once: append/increment below happen at iteration granularity.
  obs::Series& residual_series = obs::registry().series(obs::metric::kGmresResidual);
  obs::Counter& iteration_counter = obs::registry().counter(obs::metric::kGmresIterations);

  GmresResult result;
  if (!finite_vector(b) || !finite_vector(x)) {
    result.failure_reason = GmresFailure::kNonFiniteInput;
    result.relative_residual = std::numeric_limits<double>::infinity();
    return result;
  }
  const double bnorm = nrm2(b);
  if (bnorm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    result.converged = true;
    return result;
  }

  std::vector<std::vector<double>> V(static_cast<std::size_t>(m) + 1,
                                     std::vector<double>(n));
  // Hessenberg in column-major H[j] has j+2 entries.
  std::vector<std::vector<double>> H(static_cast<std::size_t>(m));
  std::vector<double> cs(static_cast<std::size_t>(m)), sn(static_cast<std::size_t>(m));
  std::vector<double> g(static_cast<std::size_t>(m) + 1);
  std::vector<double> w(n), tmp(n), r(n);

  auto apply_precond = [&](std::span<const double> in, std::span<double> out) {
    if (precond) {
      precond(in, out);
    } else {
      std::copy(in.begin(), in.end(), out.begin());
    }
  };

  bool stagnated = false;
  // A happy breakdown is terminal for the outer loop as well: the Krylov
  // space is invariant under A, so a restart would regenerate the same
  // subspace and make no further progress.
  while (result.iterations < options.max_iterations && !stagnated &&
         !result.happy_breakdown) {
    const obs::reqtrace::PhaseSpan cycle_span(obs::span::kGmresCycle);
    // r = b - A x
    A.apply(x, r);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    double beta = nrm2(r);
    if (!std::isfinite(beta)) {
      // The operator emitted NaN/Inf: x is poisoned beyond repair; report
      // instead of iterating on garbage.
      result.failure_reason = GmresFailure::kNonFiniteOperator;
      result.relative_residual = std::numeric_limits<double>::infinity();
      return result;
    }
    result.relative_residual = beta / bnorm;
    if (result.relative_residual <= options.tolerance) {
      result.converged = true;
      result.failure_reason = GmresFailure::kNone;
      return result;
    }
    for (std::size_t i = 0; i < n; ++i) V[0][i] = r[i] / beta;
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int j = 0;
    for (; j < m && result.iterations < options.max_iterations; ++j) {
      ++result.iterations;
      iteration_counter.increment();
      // w = A M^{-1} v_j
      apply_precond(V[static_cast<std::size_t>(j)], tmp);
      A.apply(tmp, w);
      const double wnorm = nrm2(w);
      if (!std::isfinite(wnorm)) {
        // Abandon the cycle: x still holds the last completed update.
        result.failure_reason = GmresFailure::kNonFiniteOperator;
        return result;
      }
      // Arnoldi, modified Gram-Schmidt.
      auto& h = H[static_cast<std::size_t>(j)];
      h.assign(static_cast<std::size_t>(j) + 2, 0.0);
      for (int i = 0; i <= j; ++i) {
        const double hij = dot(w, V[static_cast<std::size_t>(i)]);
        h[static_cast<std::size_t>(i)] = hij;
        axpy(-hij, V[static_cast<std::size_t>(i)], w);
      }
      const double hj1 = nrm2(w);
      // Happy breakdown: w lies (numerically) in the span of the current
      // basis, so the Krylov space is invariant and the least-squares
      // solution in it is exact. Record h[j+1] = 0 — dividing w by a tiny
      // hj1 would inject an amplified-noise basis vector — and stop
      // extending the space after this column's rotation.
      const bool breakdown = hj1 <= kBreakdownRel * wnorm;
      h[static_cast<std::size_t>(j) + 1] = breakdown ? 0.0 : hj1;
      if (!breakdown) {
        for (std::size_t i = 0; i < n; ++i) V[static_cast<std::size_t>(j) + 1][i] = w[i] / hj1;
      }
      // Apply existing Givens rotations to the new column.
      for (int i = 0; i < j; ++i) {
        const double t = cs[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(i)] +
                         sn[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(i) + 1];
        h[static_cast<std::size_t>(i) + 1] =
            -sn[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(i)] +
            cs[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(i) + 1];
        h[static_cast<std::size_t>(i)] = t;
      }
      // New rotation to zero h[j+1].
      const double denom =
          std::hypot(h[static_cast<std::size_t>(j)], h[static_cast<std::size_t>(j) + 1]);
      if (denom == 0.0) {
        cs[static_cast<std::size_t>(j)] = 1.0;
        sn[static_cast<std::size_t>(j)] = 0.0;
      } else {
        cs[static_cast<std::size_t>(j)] = h[static_cast<std::size_t>(j)] / denom;
        sn[static_cast<std::size_t>(j)] = h[static_cast<std::size_t>(j) + 1] / denom;
      }
      h[static_cast<std::size_t>(j)] = denom;
      h[static_cast<std::size_t>(j) + 1] = 0.0;
      const double t = cs[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j) + 1] =
          -sn[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j)] = t;

      const double rel = std::abs(g[static_cast<std::size_t>(j) + 1]) / bnorm;
      result.residual_history.push_back(rel);
      residual_series.append(rel);
      // Breakdown must be checked before the tolerance: on a singular
      // system the breakdown column rotates to a zero diagonal and
      // g[j+1] spuriously reads 0 even though the true residual is not.
      // The outer residual check below decides convergence either way.
      if (breakdown) {
        result.happy_breakdown = true;
        ++j;
        break;
      }
      if (rel <= options.tolerance) {
        ++j;
        break;
      }
      // Stagnation guard: negligible progress over the sliding window.
      const std::size_t window = static_cast<std::size_t>(
          options.stagnation_window > 0 ? options.stagnation_window : 0);
      if (window > 0 && result.residual_history.size() >= window) {
        const double then =
            result.residual_history[result.residual_history.size() - window];
        if (rel > (1.0 - options.stagnation_improvement) * then) {
          stagnated = true;
          ++j;
          break;
        }
      }
    }

    // Solve the triangular system H y = g (size j).
    std::vector<double> y(static_cast<std::size_t>(j));
    // A singular operator leaves a (numerically) zero diagonal in R: the
    // corresponding basis direction carries no information and must be
    // dropped, or roundoff noise on the diagonal amplifies into a huge y.
    // Exact zero is not enough — after Givens rotations the dead diagonal
    // is O(eps) garbage — so the guard is relative to the largest pivot.
    double max_diag = 0.0;
    for (int i = 0; i < j; ++i) {
      max_diag = std::max(
          max_diag, std::abs(H[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)]));
    }
    const double diag_floor = 1e-14 * max_diag;
    for (int i = j - 1; i >= 0; --i) {
      double acc = g[static_cast<std::size_t>(i)];
      for (int k = i + 1; k < j; ++k) {
        acc -= H[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)] *
               y[static_cast<std::size_t>(k)];
      }
      const double diag = H[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
      y[static_cast<std::size_t>(i)] = std::abs(diag) <= diag_floor ? 0.0 : acc / diag;
    }
    // x += M^{-1} (V y)
    std::fill(tmp.begin(), tmp.end(), 0.0);
    for (int i = 0; i < j; ++i) {
      axpy(y[static_cast<std::size_t>(i)], V[static_cast<std::size_t>(i)], tmp);
    }
    apply_precond(tmp, w);
    axpy(1.0, w, x);
  }

  // Final residual check.
  A.apply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  result.relative_residual = nrm2(r) / bnorm;
  result.converged =
      std::isfinite(result.relative_residual) && result.relative_residual <= options.tolerance;
  if (result.converged) {
    result.failure_reason = GmresFailure::kNone;
  } else if (!std::isfinite(result.relative_residual)) {
    result.failure_reason = GmresFailure::kNonFiniteOperator;
  } else if (result.happy_breakdown) {
    result.failure_reason = GmresFailure::kBreakdown;
  } else {
    result.failure_reason =
        stagnated ? GmresFailure::kStagnation : GmresFailure::kMaxIterations;
  }
  return result;
}

}  // namespace treecode
