#include "linalg/fused.hpp"

#include <cmath>

#include "linalg/kernels.hpp"
#include "support/assert.hpp"

namespace jacepp::linalg {

MatrixView view_of(const CsrMatrix& a) {
  const Band& band = a.band();
  MatrixView view;
  view.rows = a.rows();
  view.row_ptr = a.row_ptr().data();
  view.col_idx = a.col_idx().data();
  view.values = a.values().data();
  view.band_count = band.count;
  view.band_values = band.values.data();
  view.band_offsets = band.offsets.data();
  view.segments = band.segments.data();
  view.segment_count = band.segments.size();
  return view;
}

double spmv_residual_norm2(const CsrMatrix& a, const Vector& x, const Vector& b,
                           Vector& r) {
  JACEPP_ASSERT(x.size() == a.cols());
  JACEPP_ASSERT(b.size() == a.rows());
  r.resize(a.rows());
  if (a.band().count != 0) {
    JACEPP_ASSERT(r.data() != x.data() && r.data() != b.data());
  }
  return std::sqrt(
      kernels().spmv_residual(view_of(a), x.data(), b.data(), r.data()));
}

double spmv_dot(const CsrMatrix& a, const Vector& x, Vector& y) {
  JACEPP_ASSERT(x.size() == a.cols());
  JACEPP_ASSERT(a.rows() == a.cols());
  y.resize(a.rows());
  if (a.band().count != 0) JACEPP_ASSERT(y.data() != x.data());
  return kernels().spmv_dot(view_of(a), x.data(), y.data());
}

double cg_update(double alpha, const Vector& p, const Vector& ap, Vector& x,
                 Vector& r) {
  JACEPP_ASSERT(p.size() == x.size() && ap.size() == x.size());
  JACEPP_ASSERT(r.size() == x.size());
  JACEPP_ASSERT(x.data() != r.data() && x.data() != p.data() &&
                x.data() != ap.data() && r.data() != p.data() &&
                r.data() != ap.data());
  return kernels().cg_update(alpha, p.data(), ap.data(), x.data(), r.data(),
                             x.size());
}

}  // namespace jacepp::linalg
