#include "linalg/cg.hpp"

#include <cmath>

#include "linalg/csr_sell.hpp"
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

  Vector inv_diag;
  if (options.jacobi_preconditioner) {
    inv_diag = a.diagonal();
    for (double& d : inv_diag) {
      JACEPP_CHECK(d != 0.0, "Jacobi preconditioner: zero diagonal entry");
      d = 1.0 / d;
    }
  }

  // The work vectors persist across calls on this thread (every kernel below
  // writes its output in full before it is read). Allocated per call, they
  // would sit wherever the heap's free lists put them, and the solve's speed
  // would move by several percent whenever unrelated allocations, such as
  // checkpoint frames, change size.
  thread_local Vector r, z, p, ap;
  r.resize(n);
  z.resize(n);
  p.resize(n);
  ap.resize(n);
  double r_norm;
  if (options.fused) {
    // The SELL twin (when provided) covers exactly the SpMV-shaped fused
    // kernels; the BLAS-1 fused kernels below are layout-independent.
    r_norm = options.sell ? options.sell->spmv_residual_norm2(x, b, r)
                          : spmv_residual_norm2(a, x, b, r);
    result.flops += nnz_work;
  } else {
    a.multiply(x, ap);
    result.flops += nnz_work;
    residual(b, ap, r);
    r_norm = norm2(r);
  }

  auto apply_precond = [&](const Vector& rin, Vector& zout) {
    if (options.jacobi_preconditioner) {
      hadamard(inv_diag, rin, zout);
      result.flops += vec_work;
    } else {
      zout = rin;
    }
  };

  const double b_norm = norm2(b);
  const double threshold = options.tolerance * (b_norm > 0.0 ? b_norm : 1.0);

  if (r_norm <= threshold) {
    result.converged = true;
    result.residual_norm = r_norm;
    return result;
  }

  apply_precond(r, z);
  p = z;
  double rz = dot(r, z);
  result.flops += 2.0 * vec_work;

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    double p_ap;
    if (options.fused) {
      p_ap = options.sell ? options.sell->spmv_dot(p, ap) : spmv_dot(a, p, ap);
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
    const double alpha = rz / p_ap;
    axpy(alpha, p, x);
    if (options.fused) {
      r_norm = axpy_norm2(-alpha, ap, r);
    } else {
      axpy(-alpha, ap, r);
    }
    result.flops += 4.0 * vec_work;
    ++result.iterations;

    if (!options.fused) r_norm = norm2(r);
    result.flops += 2.0 * vec_work;
    if (r_norm <= threshold) {
      result.converged = true;
      break;
    }

    apply_precond(r, z);
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    axpby(1.0, z, beta, p);  // p = z + beta * p (1.0 * z is exact)
    result.flops += 4.0 * vec_work;
  }

  result.residual_norm = r_norm;
  return result;
}

}  // namespace jacepp::linalg
