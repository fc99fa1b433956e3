// Sparse Conjugate Gradient — the inner solver of the paper's block-Jacobi
// multisplitting (paper §6: "we have chosen the sparse Conjugate Gradient
// algorithm"), unpreconditioned.
#pragma once

#include <cstddef>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace jacepp::linalg {

class SellMatrix;

struct CgOptions {
  double tolerance = 1e-10;      ///< stop when ||r|| <= tolerance * ||b||
  std::size_t max_iterations = 1000;
  /// Run each iteration as three passes over memory with the fused kernels
  /// (linalg/fused.hpp): SpMV+dot, the x/r update with its norm, and the
  /// p update. Off runs the CSR multiply and one BLAS-1 pass per step, the
  /// tests' oracle. Bit-identical to it with a pool of size 1; with pool
  /// size >= 2 the fused SpMV reductions chunk by rows instead of elements,
  /// so results may differ by FP reassociation only. flops accounting is
  /// identical either way.
  bool fused = true;
  /// Optional SELL-slice twin of the CSR matrix (linalg/csr_sell.hpp, the
  /// `perf.sell` knob). When set (and fused), the two SpMV-shaped kernels per
  /// iteration — initial residual and p·Ap — run on the padded layout, which
  /// vectorizes short stencil rows four at a time under AVX2. Must be built
  /// from the same matrix the solve uses; agrees with the CSR path at solver
  /// precision (lane reassociation only). flops accounting still charges the
  /// real nnz.
  const SellMatrix* sell = nullptr;
};

struct CgResult {
  bool converged = false;
  std::size_t iterations = 0;
  double residual_norm = 0.0;    ///< final ||b - Ax||_2
  /// Total floating point work performed, in "flop" units (used by the
  /// simulator's compute-cost model).
  double flops = 0.0;
};

/// Solve A x = b for symmetric positive definite A, starting from the given x
/// (warm start). x is updated in place.
CgResult conjugate_gradient(const CsrMatrix& a, const Vector& b, Vector& x,
                            const CgOptions& options = {});

}  // namespace jacepp::linalg
