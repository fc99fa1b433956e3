// Fused iteration-hot-path kernels: each combines an SpMV or BLAS-1 update
// with the reduction that immediately follows it in the solvers, so the
// dominant per-iteration loops touch memory once instead of twice-to-three
// times.
//
// Determinism: every kernel performs exactly the floating-point operations of
// its unfused sequence, in the same per-element order, and folds its
// reduction in the same 4-lane order as dot() (DESIGN.md §10), so its results
// are bit-identical to running the unfused kernels back-to-back, whichever
// kernel build runs (linalg/kernels.hpp).
//
// On a matrix with a banded copy (CsrMatrix::band(), every Poisson block)
// spmv_residual_norm2 and spmv_dot build their row sums from that copy,
// several rows to a vector. Every output equals the CSR loop's bit for bit
// when the operands are finite (DESIGN.md §9 "Banded row sums").
#pragma once

#include <cstddef>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace jacepp::linalg {

/// r = b - A x in one pass over the matrix rows; returns ||r||_2.
/// Replaces multiply() + residual() + norm2(). r is resized to a.rows().
double spmv_residual_norm2(const CsrMatrix& a, const Vector& x, const Vector& b,
                           Vector& r);

/// y = A x in one pass; returns <x, y>. Replaces multiply() + dot(x, y)
/// (the CG "p·Ap" step). y is resized to a.rows(); requires a square sweep
/// (x.size() == a.cols() == a.rows()).
double spmv_dot(const CsrMatrix& a, const Vector& x, Vector& y);

/// The CG update x += alpha p, r += (-alpha) ap in one pass over four
/// distinct vectors; returns Σ r² afterwards. Replaces axpy() + axpy() +
/// dot(r, r): with the identity preconditioner that sum is both ||r||² and
/// the next r·z.
double cg_update(double alpha, const Vector& p, const Vector& ap, Vector& x,
                 Vector& r);

}  // namespace jacepp::linalg
