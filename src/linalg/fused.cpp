#include "linalg/fused.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>

#include "linalg/simd.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace jacepp::linalg {

namespace {

/// What the banded kernels fold into their reduction, row by row.
enum class Fold {
  dot,       ///< y = A x, Σ x·y (spmv_dot)
  residual,  ///< y = b - A x, Σ y² (spmv_residual_norm2)
};

/// Row sums (A x)[r] = Σ_d values[d * n + r] * x[r + offsets[d]] over the D
/// diagonals d of one band segment, for its rows [lo, hi), each folded into
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
                    double* __restrict y, std::size_t lo, std::size_t hi,
                    double partial) {
  const double* __restrict values = band.values.data();
  std::array<std::size_t, D> base;
  std::array<std::size_t, D> off;
  for (std::size_t k = 0; k < D; ++k) {
    base[k] = seg.diagonals[k] * n;
    off[k] = static_cast<std::size_t>(band.offsets[seg.diagonals[k]]);
  }
  for (std::size_t r = lo; r < hi; ++r) {
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

/// The chunk [lo, hi) of a banded kernel: its rows' outputs in y and their
/// reduction partial (b is read by Fold::residual only).
template <Fold F>
double band_chunk(const Band& band, std::size_t n, const double* x,
                  const double* b, double* y, std::size_t lo, std::size_t hi) {
  // Indexed by the segment's diagonal count, which may be 0 (rows that
  // store nothing).
  constexpr decltype(&band_segment<F, 0>) kSegment[] = {
      band_segment<F, 0>, band_segment<F, 1>, band_segment<F, 2>,
      band_segment<F, 3>, band_segment<F, 4>, band_segment<F, 5>};
  static_assert(std::size(kSegment) == kMaxBandDiagonals + 1);
  double partial = 0.0;
  for (const Band::Segment& seg : band.segments) {
    const std::size_t s_lo = std::max(lo, seg.begin);
    const std::size_t s_hi = std::min(hi, seg.end);
    if (s_lo < s_hi) {
      partial = kSegment[seg.count](band, seg, n, x, b, y, s_lo, s_hi, partial);
    }
  }
  return partial;
}

double cg_update_chunk(double alpha, const double* __restrict p,
                       const double* __restrict ap, double* __restrict x,
                       double* __restrict r, std::size_t lo, std::size_t hi) {
  const double neg_alpha = -alpha;
  double partial = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    x[i] += alpha * p[i];
    r[i] += neg_alpha * ap[i];
    partial += r[i] * r[i];
  }
  return partial;
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
  const auto sum = [](double a_, double b_) { return a_ + b_; };
  if (a.band().count != 0) {
    JACEPP_ASSERT(rs != xs && rs != bs);
    const Band* band = &a.band();
    return std::sqrt(compute_pool().parallel_reduce(
        0, n, spmv_row_grain(), 0.0,
        [=](std::size_t lo, std::size_t hi) {
          return band_chunk<Fold::residual>(*band, n, xs, bs, rs, lo, hi);
        },
        sum));
  }
  const std::uint32_t* row_ptr = a.row_ptr().data();
  const std::uint32_t* col_idx = a.col_idx().data();
  const double* values = a.values().data();
  return std::sqrt(compute_pool().parallel_reduce(
      0, n, spmv_row_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        double partial = 0.0;
        for (std::size_t row = lo; row < hi; ++row) {
          // Same FP sequence as multiply(): ax = 0.0 + row accumulator.
          double ax = 0.0;
          for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
            ax += values[k] * xs[col_idx[k]];
          }
          const double d = bs[row] - ax;
          rs[row] = d;
          partial += d * d;
        }
        return partial;
      },
      sum));
}

double spmv_dot(const CsrMatrix& a, const Vector& x, Vector& y) {
  JACEPP_ASSERT(x.size() == a.cols());
  JACEPP_ASSERT(a.rows() == a.cols());
  y.resize(a.rows());
  const std::size_t n = a.rows();
  const double* xs = x.data();
  double* ys = y.data();
  const auto sum = [](double a_, double b_) { return a_ + b_; };
  if (a.band().count != 0) {
    JACEPP_ASSERT(ys != xs);
    const Band* band = &a.band();
    return compute_pool().parallel_reduce(
        0, n, spmv_row_grain(), 0.0,
        [=](std::size_t lo, std::size_t hi) {
          return band_chunk<Fold::dot>(*band, n, xs, nullptr, ys, lo, hi);
        },
        sum);
  }
  const std::uint32_t* row_ptr = a.row_ptr().data();
  const std::uint32_t* col_idx = a.col_idx().data();
  const double* values = a.values().data();
  return compute_pool().parallel_reduce(
      0, n, spmv_row_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        double partial = 0.0;
        for (std::size_t row = lo; row < hi; ++row) {
          double ax = 0.0;
          for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
            ax += values[k] * xs[col_idx[k]];
          }
          ys[row] = ax;
          partial += xs[row] * ax;
        }
        return partial;
      },
      sum);
}

double axpy_norm2(double alpha, const Vector& x, Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  const double* xs = x.data();
  double* ys = y.data();
  const bool vec = simd::active();
  const double acc = compute_pool().parallel_reduce(
      0, x.size(), vector_op_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        if (vec) return simd::axpy_norm2sq(alpha, xs + lo, ys + lo, hi - lo);
        double partial = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          ys[i] += alpha * xs[i];
          partial += ys[i] * ys[i];
        }
        return partial;
      },
      [](double a_, double b_) { return a_ + b_; });
  return std::sqrt(acc);
}

double cg_update(double alpha, const Vector& p, const Vector& ap, Vector& x,
                 Vector& r) {
  JACEPP_ASSERT(p.size() == x.size() && ap.size() == x.size());
  JACEPP_ASSERT(r.size() == x.size());
  const double* ps = p.data();
  const double* aps = ap.data();
  double* xs = x.data();
  double* rs = r.data();
  JACEPP_ASSERT(xs != rs && xs != ps && xs != aps && rs != ps && rs != aps);
  const bool vec = simd::active();
  return compute_pool().parallel_reduce(
      0, x.size(), vector_op_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        if (vec) {
          simd::axpy(alpha, ps + lo, xs + lo, hi - lo);
          return simd::axpy_norm2sq(-alpha, aps + lo, rs + lo, hi - lo);
        }
        return cg_update_chunk(alpha, ps, aps, xs, rs, lo, hi);
      },
      [](double a_, double b_) { return a_ + b_; });
}

SweepStats relax_sweep_fused(const CsrMatrix& a, const Vector& inv_diag,
                             const Vector& b, const Vector& x_in, Vector& x_out,
                             double omega, std::size_t row_lo,
                             std::size_t row_hi) {
  JACEPP_ASSERT(row_lo <= row_hi && row_hi <= a.rows());
  JACEPP_ASSERT(x_in.size() == a.cols());
  JACEPP_ASSERT(x_out.size() == x_in.size());
  JACEPP_ASSERT(inv_diag.size() == a.rows() && b.size() == a.rows());
  JACEPP_ASSERT(x_in.data() != x_out.data());
  const std::uint32_t* row_ptr = a.row_ptr().data();
  const std::uint32_t* col_idx = a.col_idx().data();
  const double* values = a.values().data();
  const double* inv_d = inv_diag.data();
  const double* bs = b.data();
  const double* xin = x_in.data();
  double* xout = x_out.data();
  return compute_pool().parallel_reduce(
      row_lo, row_hi, spmv_row_grain(), SweepStats{},
      [=](std::size_t lo, std::size_t hi) {
        SweepStats partial;
        for (std::size_t row = lo; row < hi; ++row) {
          double ax = 0.0;
          for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
            ax += values[k] * xin[col_idx[k]];
          }
          const double update = omega * inv_d[row] * (bs[row] - ax);
          const double v = xin[row] + update;
          xout[row] = v;
          partial.diff2 += update * update;
          partial.norm2 += v * v;
        }
        return partial;
      },
      [](SweepStats a_, const SweepStats& b_) {
        a_.diff2 += b_.diff2;
        a_.norm2 += b_.norm2;
        return a_;
      });
}

}  // namespace jacepp::linalg
