// Dense vector kernels. Vectors are std::vector<double> over a 64-byte
// aligned allocator (support/aligned.hpp) so kernel operands start on a cache
// line; these free functions provide the BLAS-1 level operations the solvers
// need. axpy, axpby, dot, norm2 and distance2 run the kernel build picked at
// start-up (linalg/kernels.hpp); the reductions fold in one 4-lane order
// written in the source, so a result is the same bits on every run and every
// machine (DESIGN.md §10).
#pragma once

#include <cstddef>
#include <vector>

#include "support/aligned.hpp"

namespace jacepp::linalg {

/// Kernel operand vector: std::vector<double> semantics, 64-byte-aligned
/// storage. Interchangeable with std::vector<double> everywhere except the
/// type itself (the serializer templates over the allocator).
using Vector = support::AlignedVector<double>;

/// The one nonzero value `PerfConfig::grain` accepts (core/config.hpp); the
/// benchmark drivers assign it. No kernel reads it.
inline constexpr std::size_t kVectorOpGrain = 4096;

/// y += alpha * x  (sizes must match).
void axpy(double alpha, const Vector& x, Vector& y);

/// y = alpha * x + beta * y.
void axpby(double alpha, const Vector& x, double beta, Vector& y);

/// Dot product <x, y>.
double dot(const Vector& x, const Vector& y);

/// Euclidean norm.
double norm2(const Vector& x);

/// Max-norm.
double norm_inf(const Vector& x);

/// ||x - y||_2 (sizes must match).
double distance2(const Vector& x, const Vector& y);

/// ||x - y||_inf.
double distance_inf(const Vector& x, const Vector& y);

/// x *= alpha.
void scale(Vector& x, double alpha);

/// x = value everywhere.
void fill(Vector& x, double value);

/// r = b - (matvec result), computed by caller; helper: r = b - ax.
void residual(const Vector& b, const Vector& ax, Vector& r);

}  // namespace jacepp::linalg
