// Portable-intrinsics SIMD layer for the iteration hot path (DESIGN.md §10).
//
// One binary carries three implementations of every BLAS-1 kernel — AVX2,
// SSE2 and scalar — and picks the widest one the executing CPU supports, once,
// via CPUID (detected_level()). The whole layer sits behind the `perf.simd`
// knob: with set_enabled(false) (the default) active_level() is scalar and
// every wrapped call site in vector_ops.cpp / fused.cpp runs its original
// scalar loop untouched, bit-identical to the pre-SIMD code. The CSR kernels
// (csr.cpp, fused.cpp) stay scalar at every level: gathered AVX2 row dots
// measured 0.95-1.03x on 3-5 nnz stencil rows; SELL (csr_sell.hpp) is the
// vectorized SpMV layout.
//
// Determinism contract (mirrors the fused-kernel contract in fused.hpp):
//   * enabled: each kernel uses FIXED-width lane accumulators and reduces the
//     lanes in a fixed order, so for a given (input, chunking, ISA level) the
//     result is bitwise reproducible run to run. Results may differ from the
//     scalar path only by floating-point reassociation across lanes; solvers
//     see off-vs-on agreement at solver precision (tested).
//   * element-wise kernels (axpy, axpby, scale, sub) perform the
//     exact per-element operations of the scalar loop — no reassociation is
//     possible, so they stay bit-identical to scalar at every level.
//
// These are CHUNK kernels: the thread-pool call sites keep their existing
// grain-based chunking (support/thread_pool.hpp) and invoke one of these per
// chunk, so pool determinism (chunk boundaries, merge order) is unchanged.
#pragma once

#include <cstddef>

namespace jacepp::linalg::simd {

/// ISA dispatch level, ordered by width.
enum class Level : int { scalar = 0, sse2 = 1, avx2 = 2 };

/// Widest level the executing CPU supports (CPUID, evaluated once).
[[nodiscard]] Level detected_level();

/// Lowercase name for reports and bench metadata: "scalar", "sse2", "avx2".
[[nodiscard]] const char* level_name(Level level);

/// `perf.simd` knob: process-wide, set at deployment build time (like
/// set_kernel_grain). Off by default.
void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// detected_level() when enabled, Level::scalar otherwise.
[[nodiscard]] Level active_level();

/// True when a vector unit is both available and switched on — the call
/// sites' "take the SIMD branch" predicate.
[[nodiscard]] bool active();

/// Doubles per vector register at `level` (1 / 2 / 4) — the unit tests use it
/// to build remainder-lane edge cases (n = width ± 1).
[[nodiscard]] std::size_t lane_width(Level level);

// --- BLAS-1 chunk kernels ---------------------------------------------------

/// Σ x[i] * y[i].
[[nodiscard]] double dot(const double* x, const double* y, std::size_t n);

/// Σ x[i]².
[[nodiscard]] double norm2sq(const double* x, std::size_t n);

/// y[i] += alpha * x[i].
void axpy(double alpha, const double* x, double* y, std::size_t n);

/// y[i] = alpha * x[i] + beta * y[i].
void axpby(double alpha, const double* x, double beta, double* y,
           std::size_t n);

/// x[i] *= alpha.
void scale(double* x, double alpha, std::size_t n);

/// out[i] = a[i] - b[i].
void sub(const double* a, const double* b, double* out, std::size_t n);

/// y[i] += alpha * x[i]; returns Σ y[i]² (post-update) — the fused
/// residual-update kernel of fused.cpp.
[[nodiscard]] double axpy_norm2sq(double alpha, const double* x, double* y,
                                  std::size_t n);

}  // namespace jacepp::linalg::simd
