// One source, two builds (linalg/kernels.hpp). CMake compiles this file once
// per build with JACEPP_KERNEL_BUILD naming the build's namespace; every
// helper has internal linkage, and the build's table is its one external
// symbol.
#include "linalg/kernels.hpp"

#include <type_traits>

namespace jacepp::linalg {

namespace {

/// The widest double vector the build's flags enable: one 32-byte register
/// with AVX, else one 16-byte SSE2 register.
#if defined(__AVX__)
using Vec = double __attribute__((vector_size(32)));
#else
using Vec = double __attribute__((vector_size(16)));
#endif
constexpr std::size_t kWidth = sizeof(Vec) / sizeof(double);

/// The four lanes of the one reduction order (DESIGN.md §10), kWidth to a
/// vector: lane j sums the terms of the rows r with r % 4 == j, in row
/// order, from +0.0, and fold() combines the lanes as (l0 + l2) + (l1 + l3).
/// The order lives here, in the source, not in the vector width, so every
/// build gives the same bits.
struct Lanes {
  Vec part[4 / kWidth] = {};
};

/// Lane J of `lanes`.
template <std::size_t J>
double& lane(Lanes& lanes) {
  return lanes.part[J / kWidth][J % kWidth];
}

double fold(Lanes l) {
  return (lane<0>(l) + lane<2>(l)) + (lane<1>(l) + lane<3>(l));
}

/// Adds row r's term t to lane r % 4. Each lane is named by a constant, so
/// the lanes stay in registers.
void add_to_lane(Lanes& lanes, std::size_t r, double t) {
  switch (r % 4) {
    case 0: lane<0>(lanes) += t; break;
    case 1: lane<1>(lanes) += t; break;
    case 2: lane<2>(lanes) += t; break;
    default: lane<3>(lanes) += t; break;
  }
}

/// The term of one row (double) or of kWidth rows (Vec), read or written
/// at p.
double load(const double* p, double) { return *p; }
Vec load(const double* p, Vec) {
  Vec v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}
void store(double* p, double v) { *p = v; }
void store(double* p, Vec v) { __builtin_memcpy(p, &v, sizeof v); }

/// Adds the terms of rows [begin, end) to their lanes. term(r, zero)
/// returns row r's term when zero is a double, and the terms of rows
/// r..r+kWidth-1 when it is a Vec; it may also write the rows' outputs.
/// Rows from a multiple of 4 go kWidth at a time, so row r always lands in
/// lane r % 4.
template <typename Term>
void add_rows(std::size_t begin, std::size_t end, Lanes& lanes, Term term) {
  Lanes acc = lanes;
  std::size_t r = begin;
  for (; r < end && r % 4 != 0; ++r) add_to_lane(acc, r, term(r, 0.0));
  for (; r + 4 <= end; r += 4) {
#pragma GCC unroll 4
    for (std::size_t p = 0; p < 4 / kWidth; ++p) {
      acc.part[p] += term(r + p * kWidth, Vec{});
    }
  }
  for (; r < end; ++r) add_to_lane(acc, r, term(r, 0.0));
  lanes = acc;
}

/// What the SpMV kernels fold into their reduction, row by row.
enum class Fold {
  dot,       ///< y = A x, Σ x·y (spmv_dot)
  residual,  ///< y = b - A x, Σ y² (spmv_residual)
};

/// Row r's output from its sum ax = (A x)[r] (one row or kWidth): y[r] = ax
/// and the term x[r]·ax, or y[r] = b[r] - ax and the term y[r]².
template <Fold F, typename T>
T finish_row(std::size_t r, T ax, const double* x, const double* b,
             double* y) {
  if constexpr (F == Fold::dot) {
    store(y + r, ax);
    return load(x + r, ax) * ax;
  } else {
    const T d = load(b + r, ax) - ax;
    store(y + r, d);
    return d * d;
  }
}

/// Row sums (A x)[r] = Σ_d values[d * n + r] * x[r + offsets[d]] over the D
/// diagonals d of one band segment, kWidth rows at a time. A row adds its
/// diagonals in ascending order, as a CSR row with ascending columns does,
/// and skips only those whose column is out of range. Indices wrap in
/// size_t rather than offsetting pointers, which could point before the
/// arrays.
template <Fold F, std::size_t D>
void band_segment(const MatrixView& a, const Band::Segment& seg,
                  const double* __restrict x, const double* __restrict b,
                  double* __restrict y, Lanes& lanes) {
  const double* __restrict values = a.band_values;
  std::size_t base[kMaxBandDiagonals];
  std::size_t off[kMaxBandDiagonals];
  for (std::size_t k = 0; k != D; ++k) {
    base[k] = seg.diagonals[k] * a.rows;
    off[k] = static_cast<std::size_t>(a.band_offsets[seg.diagonals[k]]);
  }
  add_rows(seg.begin, seg.end, lanes, [&](std::size_t r, auto zero) {
    auto ax = zero;
#pragma GCC unroll 8
    for (std::size_t k = 0; k != D; ++k) {
      ax += load(values + (base[k] + r), zero) * load(x + (r + off[k]), zero);
    }
    return finish_row<F>(r, ax, x, b, y);
  });
}

/// An SpMV kernel over every row: the rows' outputs in y and their
/// reduction (b is read by Fold::residual only). A matrix with a band reads
/// it; any other reads its CSR arrays.
template <Fold F>
double spmv_rows(const MatrixView& a, const double* x, const double* b,
                 double* y) {
  Lanes lanes;
  if (a.band_count != 0) {
    // Indexed by the segment's diagonal count, which may be 0 (rows that
    // store nothing).
    constexpr decltype(&band_segment<F, 0>) kSegment[] = {
        band_segment<F, 0>, band_segment<F, 1>, band_segment<F, 2>,
        band_segment<F, 3>, band_segment<F, 4>, band_segment<F, 5>};
    static_assert(sizeof(kSegment) / sizeof(kSegment[0]) ==
                  kMaxBandDiagonals + 1);
    for (std::size_t s = 0; s < a.segment_count; ++s) {
      const Band::Segment& seg = a.segments[s];
      kSegment[seg.count](a, seg, x, b, y, lanes);
    }
    return fold(lanes);
  }
  // Same FP sequence per row as CsrMatrix::multiply(): 0.0 + the row's
  // products in column order.
  const auto row_sum = [&](std::size_t r) {
    double ax = 0.0;
    for (std::uint32_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      ax += a.values[k] * x[a.col_idx[k]];
    }
    return ax;
  };
  add_rows(0, a.rows, lanes, [&](std::size_t r, auto zero) {
    auto ax = zero;
    if constexpr (std::is_same_v<decltype(zero), double>) {
      ax = row_sum(r);
    } else {
#pragma GCC unroll 4
      for (std::size_t j = 0; j < kWidth; ++j) ax[j] = row_sum(r + j);
    }
    return finish_row<F>(r, ax, x, b, y);
  });
  return fold(lanes);
}

double spmv_residual(const MatrixView& a, const double* x, const double* b,
                     double* r) {
  return spmv_rows<Fold::residual>(a, x, b, r);
}

double spmv_dot(const MatrixView& a, const double* x, double* y) {
  return spmv_rows<Fold::dot>(a, x, nullptr, y);
}

double cg_update(double alpha, const double* __restrict p,
                 const double* __restrict ap, double* __restrict x,
                 double* __restrict r, std::size_t n) {
  const double neg_alpha = -alpha;
  Lanes lanes;
  add_rows(0, n, lanes, [&](std::size_t i, auto zero) {
    store(x + i, load(x + i, zero) + alpha * load(p + i, zero));
    const auto ri = load(r + i, zero) + neg_alpha * load(ap + i, zero);
    store(r + i, ri);
    return ri * ri;
  });
  return fold(lanes);
}

double dot(const double* x, const double* y, std::size_t n) {
  Lanes lanes;
  add_rows(0, n, lanes, [&](std::size_t i, auto zero) {
    return load(x + i, zero) * load(y + i, zero);
  });
  return fold(lanes);
}

double distance_sq(const double* x, const double* y, std::size_t n) {
  Lanes lanes;
  add_rows(0, n, lanes, [&](std::size_t i, auto zero) {
    const auto d = load(x + i, zero) - load(y + i, zero);
    return d * d;
  });
  return fold(lanes);
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void axpby(double alpha, const double* x, double beta, double* y,
           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

}  // namespace

namespace JACEPP_KERNEL_BUILD {

extern const Kernels kKernels;
const Kernels kKernels = {
#if defined(__AVX2__)
    simd::Level::avx2,
#elif defined(__SSE2__)
    simd::Level::sse2,
#else
    simd::Level::scalar,
#endif
    spmv_residual, spmv_dot, cg_update, dot, distance_sq, axpy, axpby,
};

}  // namespace JACEPP_KERNEL_BUILD

}  // namespace jacepp::linalg
