#include "linalg/fused.hpp"

#include <array>
#include <cmath>
#include <iterator>

#include "support/assert.hpp"

namespace jacepp::linalg {

namespace {

/// What the banded kernels fold into their reduction, row by row.
enum class Fold {
  dot,       ///< y = A x, Σ x·y (spmv_dot)
  residual,  ///< y = b - A x, Σ y² (spmv_residual_norm2)
};

/// Row sums (A x)[r] = Σ_d values[d * n + r] * x[r + offsets[d]] over the D
/// diagonals d of one band segment, for each of its rows, folded into
/// `partial` in row order as the CSR loop folds it. A row adds its diagonals
/// in ascending order, as a CSR row with ascending columns does, and skips
/// only those whose column is out of range. GCC vectorizes the loop across
/// rows at the baseline ISA, keeping the fold in row order. It stays scalar
/// unless the pointers are restrict and, at -O2, unless the diagonal loop is
/// unrolled first; x is indexed rather than offset because x + offset would
/// point before the array.
template <Fold F, std::size_t D>
double band_segment(const Band& band, const Band::Segment& seg, std::size_t n,
                    const double* __restrict x, const double* __restrict b,
                    double* __restrict y, double partial) {
  const double* __restrict values = band.values.data();
  std::array<std::size_t, D> base;
  std::array<std::size_t, D> off;
  for (std::size_t k = 0; k < D; ++k) {
    base[k] = seg.diagonals[k] * n;
    off[k] = static_cast<std::size_t>(band.offsets[seg.diagonals[k]]);
  }
  for (std::size_t r = seg.begin; r < seg.end; ++r) {
    double acc = 0.0;
#pragma GCC unroll 8
    for (std::size_t k = 0; k < D; ++k) {
      acc += values[base[k] + r] * x[r + off[k]];
    }
    if constexpr (F == Fold::dot) {
      y[r] = acc;
      partial += x[r] * acc;
    } else {
      const double d = b[r] - acc;
      y[r] = d;
      partial += d * d;
    }
  }
  return partial;
}

/// A banded kernel over every row: the rows' outputs in y and their
/// reduction (b is read by Fold::residual only).
template <Fold F>
double band_rows(const Band& band, std::size_t n, const double* x,
                 const double* b, double* y) {
  // Indexed by the segment's diagonal count, which may be 0 (rows that
  // store nothing).
  constexpr decltype(&band_segment<F, 0>) kSegment[] = {
      band_segment<F, 0>, band_segment<F, 1>, band_segment<F, 2>,
      band_segment<F, 3>, band_segment<F, 4>, band_segment<F, 5>};
  static_assert(std::size(kSegment) == kMaxBandDiagonals + 1);
  double sum = 0.0;
  for (const Band::Segment& seg : band.segments) {
    sum = kSegment[seg.count](band, seg, n, x, b, y, sum);
  }
  return sum;
}

double cg_update_rows(double alpha, const double* __restrict p,
                      const double* __restrict ap, double* __restrict x,
                      double* __restrict r, std::size_t n) {
  const double neg_alpha = -alpha;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += alpha * p[i];
    r[i] += neg_alpha * ap[i];
    sum += r[i] * r[i];
  }
  return sum;
}

}  // namespace

double spmv_residual_norm2(const CsrMatrix& a, const Vector& x, const Vector& b,
                           Vector& r) {
  JACEPP_ASSERT(x.size() == a.cols());
  JACEPP_ASSERT(b.size() == a.rows());
  r.resize(a.rows());
  const std::size_t n = a.rows();
  const double* xs = x.data();
  const double* bs = b.data();
  double* rs = r.data();
  if (a.band().count != 0) {
    JACEPP_ASSERT(rs != xs && rs != bs);
    return std::sqrt(band_rows<Fold::residual>(a.band(), n, xs, bs, rs));
  }
  const std::uint32_t* row_ptr = a.row_ptr().data();
  const std::uint32_t* col_idx = a.col_idx().data();
  const double* values = a.values().data();
  double sum = 0.0;
  for (std::size_t row = 0; row < n; ++row) {
    // Same FP sequence as multiply(): ax = 0.0 + row accumulator.
    double ax = 0.0;
    for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      ax += values[k] * xs[col_idx[k]];
    }
    const double d = bs[row] - ax;
    rs[row] = d;
    sum += d * d;
  }
  return std::sqrt(sum);
}

double spmv_dot(const CsrMatrix& a, const Vector& x, Vector& y) {
  JACEPP_ASSERT(x.size() == a.cols());
  JACEPP_ASSERT(a.rows() == a.cols());
  y.resize(a.rows());
  const std::size_t n = a.rows();
  const double* xs = x.data();
  double* ys = y.data();
  if (a.band().count != 0) {
    JACEPP_ASSERT(ys != xs);
    return band_rows<Fold::dot>(a.band(), n, xs, nullptr, ys);
  }
  const std::uint32_t* row_ptr = a.row_ptr().data();
  const std::uint32_t* col_idx = a.col_idx().data();
  const double* values = a.values().data();
  double sum = 0.0;
  for (std::size_t row = 0; row < n; ++row) {
    double ax = 0.0;
    for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      ax += values[k] * xs[col_idx[k]];
    }
    ys[row] = ax;
    sum += xs[row] * ax;
  }
  return sum;
}

double cg_update(double alpha, const Vector& p, const Vector& ap, Vector& x,
                 Vector& r) {
  JACEPP_ASSERT(p.size() == x.size() && ap.size() == x.size());
  JACEPP_ASSERT(r.size() == x.size());
  JACEPP_ASSERT(x.data() != r.data() && x.data() != p.data() &&
                x.data() != ap.data() && r.data() != p.data() &&
                r.data() != ap.data());
  return cg_update_rows(alpha, p.data(), ap.data(), x.data(), r.data(),
                        x.size());
}

}  // namespace jacepp::linalg
