#include "linalg/cg.hpp"

#include <cmath>

#include "linalg/kernels.hpp"
#include "support/assert.hpp"

namespace jacepp::linalg {

CgResult conjugate_gradient(const CsrMatrix& a, const Vector& b, Vector& x,
                            const CgOptions& options) {
  return conjugate_gradient(kernels(), a, b, x, options);
}

CgResult conjugate_gradient(const Kernels& k, const CsrMatrix& a,
                            const Vector& b, Vector& x,
                            const CgOptions& options) {
  const std::size_t n = b.size();
  JACEPP_ASSERT(a.rows() == n && a.cols() == n);
  if (x.size() != n) x.assign(n, 0.0);

  CgResult result;
  const double nnz_work = 2.0 * static_cast<double>(a.nnz());
  const double vec_work = static_cast<double>(n);
  const MatrixView m = view_of(a);

  // The work vectors persist across calls on this thread (every kernel below
  // writes its output in full before it is read). Allocated per call, they
  // would sit wherever the heap's free lists put them, and the solve's speed
  // would move by several percent whenever unrelated allocations, such as
  // checkpoint frames, change size.
  thread_local Vector r, p, ap;
  r.resize(n);
  p.resize(n);
  ap.resize(n);
  double r_norm;
  if (options.fused) {
    r_norm = std::sqrt(k.spmv_residual(m, x.data(), b.data(), r.data()));
    result.flops += nnz_work;
  } else {
    a.multiply(x, ap);
    result.flops += nnz_work;
    residual(b, ap, r);
    r_norm = std::sqrt(k.dot(r.data(), r.data(), n));
  }

  const double b_norm = std::sqrt(k.dot(b.data(), b.data(), n));
  const double threshold = options.tolerance * (b_norm > 0.0 ? b_norm : 1.0);

  if (r_norm <= threshold) {
    result.converged = true;
    result.residual_norm = r_norm;
    return result;
  }

  // The preconditioner is the identity, so z = r and r·z = r·r.
  p = r;
  double rr = k.dot(r.data(), r.data(), n);
  result.flops += 2.0 * vec_work;

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    double p_ap;
    if (options.fused) {
      p_ap = k.spmv_dot(m, p.data(), ap.data());
    } else {
      a.multiply(p, ap);
      p_ap = k.dot(p.data(), ap.data(), n);
    }
    result.flops += nnz_work + 2.0 * vec_work;
    if (p_ap <= 0.0) {
      // Non-SPD system or total breakdown; report divergence rather than abort
      // so callers (the async runtime) can react.
      break;
    }
    const double alpha = rr / p_ap;
    double rr_next;
    if (options.fused) {
      rr_next = k.cg_update(alpha, p.data(), ap.data(), x.data(), r.data(), n);
    } else {
      k.axpy(alpha, p.data(), x.data(), n);
      k.axpy(-alpha, ap.data(), r.data(), n);
      rr_next = k.dot(r.data(), r.data(), n);
    }
    r_norm = std::sqrt(rr_next);
    result.flops += 4.0 * vec_work;  // x and r updates
    result.flops += 2.0 * vec_work;  // ||r||
    ++result.iterations;
    if (r_norm <= threshold) {
      result.converged = true;
      break;
    }

    const double beta = rr_next / rr;
    rr = rr_next;
    // p = r + beta * p (1.0 * r is exact)
    k.axpby(1.0, r.data(), beta, p.data(), n);
    result.flops += 4.0 * vec_work;
  }

  result.residual_norm = r_norm;
  return result;
}

}  // namespace jacepp::linalg
