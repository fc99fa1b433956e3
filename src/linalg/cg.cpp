#include "linalg/cg.hpp"

#include <cmath>

#include "linalg/fused.hpp"
#include "support/assert.hpp"

namespace jacepp::linalg {

CgResult conjugate_gradient(const CsrMatrix& a, const Vector& b, Vector& x,
                            const CgOptions& options) {
  const std::size_t n = b.size();
  JACEPP_ASSERT(a.rows() == n && a.cols() == n);
  if (x.size() != n) x.assign(n, 0.0);

  CgResult result;
  const double nnz_work = 2.0 * static_cast<double>(a.nnz());
  const double vec_work = static_cast<double>(n);

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
    r_norm = spmv_residual_norm2(a, x, b, r);
    result.flops += nnz_work;
  } else {
    a.multiply(x, ap);
    result.flops += nnz_work;
    residual(b, ap, r);
    r_norm = norm2(r);
  }

  const double b_norm = norm2(b);
  const double threshold = options.tolerance * (b_norm > 0.0 ? b_norm : 1.0);

  if (r_norm <= threshold) {
    result.converged = true;
    result.residual_norm = r_norm;
    return result;
  }

  // The preconditioner is the identity, so z = r and r·z = r·r.
  p = r;
  double rr = dot(r, r);
  result.flops += 2.0 * vec_work;

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    double p_ap;
    if (options.fused) {
      p_ap = spmv_dot(a, p, ap);
    } else {
      a.multiply(p, ap);
      p_ap = dot(p, ap);
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
      rr_next = cg_update(alpha, p, ap, x, r);
    } else {
      axpy(alpha, p, x);
      axpy(-alpha, ap, r);
      rr_next = dot(r, r);
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
    axpby(1.0, r, beta, p);  // p = r + beta * p (1.0 * r is exact)
    result.flops += 4.0 * vec_work;
  }

  result.residual_norm = r_norm;
  return result;
}

}  // namespace jacepp::linalg
