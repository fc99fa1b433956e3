// The kernels conjugate_gradient runs, as one table per build (DESIGN.md
// §10). One source, linalg/kernels.cpp, is compiled twice: once for the
// baseline ISA and, on x86-64, once with -mavx2. simd.cpp picks one build
// once at start-up (kernels()); fused.hpp and vector_ops.hpp call through
// it, and tests and benches may call either build directly.
//
// The builds read raw pointers and the plain structs below and call no
// inline function of another header, so the AVX2 object emits no weak
// symbol that the linker could hand to baseline code.
#pragma once

#include <cstddef>
#include <cstdint>

#include "linalg/csr.hpp"
#include "linalg/simd.hpp"

namespace jacepp::linalg {

/// A matrix as the kernels read it: the CSR arrays and, when band_count is
/// not 0, the banded copy the SpMV kernels use instead.
struct MatrixView {
  std::size_t rows = 0;
  const std::uint32_t* row_ptr = nullptr;
  const std::uint32_t* col_idx = nullptr;
  const double* values = nullptr;
  std::size_t band_count = 0;
  const double* band_values = nullptr;
  const std::ptrdiff_t* band_offsets = nullptr;
  const Band::Segment* segments = nullptr;
  std::size_t segment_count = 0;
};

[[nodiscard]] MatrixView view_of(const CsrMatrix& a);

/// One build of the kernels. The reductions return sums; callers take the
/// square roots. Sizes and aliasing are the callers' checks (fused.cpp,
/// vector_ops.cpp).
struct Kernels {
  /// The widest vector ISA the build's flags enable.
  simd::Level level;
  /// r = b - A x; returns Σ r².
  double (*spmv_residual)(const MatrixView& a, const double* x,
                          const double* b, double* r);
  /// y = A x; returns Σ x·y.
  double (*spmv_dot)(const MatrixView& a, const double* x, double* y);
  /// x += alpha p, r += (-alpha) ap; returns Σ r².
  double (*cg_update)(double alpha, const double* p, const double* ap,
                      double* x, double* r, std::size_t n);
  /// Σ x·y.
  double (*dot)(const double* x, const double* y, std::size_t n);
  /// Σ (x - y)².
  double (*distance_sq)(const double* x, const double* y, std::size_t n);
  /// y += alpha x.
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  /// y = alpha x + beta y.
  void (*axpby)(double alpha, const double* x, double beta, double* y,
                std::size_t n);
};

/// The build for the baseline ISA, which every CPU of the target runs.
[[nodiscard]] const Kernels& baseline_kernels();

/// The AVX2 build; nullptr on targets that have none.
[[nodiscard]] const Kernels* avx2_kernels();

/// The build picked at start-up: AVX2 when the CPU supports it, otherwise
/// the baseline.
[[nodiscard]] const Kernels& kernels();

}  // namespace jacepp::linalg
