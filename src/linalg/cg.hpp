// Sparse Conjugate Gradient — the inner solver of the paper's block-Jacobi
// multisplitting (paper §6: "we have chosen the sparse Conjugate Gradient
// algorithm"), unpreconditioned.
#pragma once

#include <cstddef>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace jacepp::linalg {

struct CgOptions {
  double tolerance = 1e-10;      ///< stop when ||r|| <= tolerance * ||b||
  std::size_t max_iterations = 1000;
  /// Run each iteration as three passes over memory with the fused kernels
  /// (linalg/fused.hpp): SpMV+dot, the x/r update with its norm, and the
  /// p update. Off runs the CSR multiply and one BLAS-1 pass per step, the
  /// tests' oracle; both give the same bits and charge the same flops.
  bool fused = true;
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
/// (warm start). x is updated in place. Runs the kernel build picked at
/// start-up (linalg/kernels.hpp).
CgResult conjugate_gradient(const CsrMatrix& a, const Vector& b, Vector& x,
                            const CgOptions& options = {});

struct Kernels;

/// The same solve on a named kernel build, for tests and benches that
/// compare the builds.
CgResult conjugate_gradient(const Kernels& kernels, const CsrMatrix& a,
                            const Vector& b, Vector& x,
                            const CgOptions& options = {});

}  // namespace jacepp::linalg
