#include "linalg/csr.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace jacepp::linalg {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::uint32_t> row_ptr,
                     std::vector<std::uint32_t> col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  JACEPP_ASSERT(row_ptr_.size() == rows_ + 1);
  JACEPP_ASSERT(col_idx_.size() == values_.size());
  JACEPP_ASSERT(row_ptr_.back() == values_.size());
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  JACEPP_ASSERT(r < rows_ && c < cols_);
  for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
    if (col_idx_[k] == c) return values_[k];
  }
  return 0.0;
}

void CsrMatrix::multiply(const Vector& x, Vector& y) const {
  JACEPP_ASSERT(x.size() == cols_);
  y.assign(rows_, 0.0);
  multiply_add(x, y);
}

void CsrMatrix::multiply_add(const Vector& x, Vector& y) const {
  JACEPP_ASSERT(x.size() == cols_);
  JACEPP_ASSERT(y.size() == rows_);
  const std::uint32_t* row_ptr = row_ptr_.data();
  const std::uint32_t* col_idx = col_idx_.data();
  const double* values = values_.data();
  const double* xs = x.data();
  double* ys = y.data();
  compute_pool().parallel_for(
      0, rows_, spmv_row_grain(), [=](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          double acc = 0.0;
          for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            acc += values[k] * xs[col_idx[k]];
          }
          ys[r] += acc;
        }
      });
}

Vector CsrMatrix::diagonal() const {
  Vector d(rows_, 0.0);
  for (std::size_t r = 0; r < rows_ && r < cols_; ++r) d[r] = at(r, r);
  return d;
}

CsrMatrix CsrMatrix::block(std::size_t row_lo, std::size_t row_hi,
                           std::size_t col_lo, std::size_t col_hi) const {
  JACEPP_ASSERT(row_lo <= row_hi && row_hi <= rows_);
  JACEPP_ASSERT(col_lo <= col_hi && col_hi <= cols_);
  CsrBuilder builder(row_hi - row_lo, col_hi - col_lo);
  for (std::size_t r = row_lo; r < row_hi; ++r) {
    for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::uint32_t c = col_idx_[k];
      if (c >= col_lo && c < col_hi) {
        builder.add(r - row_lo, c - col_lo, values_[k]);
      }
    }
  }
  return builder.build();
}

void CsrMatrix::off_block_multiply_add(std::size_t row_lo, std::size_t row_hi,
                                       std::size_t col_lo, std::size_t col_hi,
                                       const Vector& x_global,
                                       Vector& y_local) const {
  JACEPP_ASSERT(row_lo <= row_hi && row_hi <= rows_);
  JACEPP_ASSERT(x_global.size() == cols_);
  JACEPP_ASSERT(y_local.size() == row_hi - row_lo);
  const std::uint32_t* row_ptr = row_ptr_.data();
  const std::uint32_t* col_idx = col_idx_.data();
  const double* values = values_.data();
  const double* xs = x_global.data();
  double* ys = y_local.data();
  compute_pool().parallel_for(
      row_lo, row_hi, spmv_row_grain(), [=](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          double acc = 0.0;
          for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            const std::uint32_t c = col_idx[k];
            if (c < col_lo || c >= col_hi) acc += values[k] * xs[c];
          }
          ys[r - row_lo] += acc;
        }
      });
}

CsrMatrix CsrMatrix::transpose() const {
  CsrBuilder builder(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      builder.add(col_idx_[k], r, values_[k]);
    }
  }
  return builder.build();
}

void CsrMatrix::serialize(serial::Writer& w) const {
  w.varint(rows_);
  w.varint(cols_);
  w.u32_vector(row_ptr_);
  w.u32_vector(col_idx_);
  w.f64_vector(values_);
}

CsrMatrix CsrMatrix::deserialize(serial::Reader& r) {
  const std::size_t rows = r.varint();
  const std::size_t cols = r.varint();
  auto row_ptr = r.u32_vector();
  auto col_idx = r.u32_vector();
  auto values = r.f64_vector();
  if (!r.ok()) return {};
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

void CsrBuilder::add(std::size_t r, std::size_t c, double v) {
  JACEPP_ASSERT(r < rows_ && c < cols_);
  triplets_.push_back(Triplet{static_cast<std::uint32_t>(r),
                              static_cast<std::uint32_t>(c), v});
}

CsrMatrix CsrBuilder::build() {
  std::sort(triplets_.begin(), triplets_.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  std::vector<std::uint32_t> row_ptr(rows_ + 1, 0);
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(triplets_.size());
  values.reserve(triplets_.size());

  std::size_t i = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    row_ptr[r] = static_cast<std::uint32_t>(values.size());
    while (i < triplets_.size() && triplets_[i].row == r) {
      const std::uint32_t c = triplets_[i].col;
      double sum = 0.0;
      while (i < triplets_.size() && triplets_[i].row == r && triplets_[i].col == c) {
        sum += triplets_[i].value;
        ++i;
      }
      if (sum != 0.0) {
        col_idx.push_back(c);
        values.push_back(sum);
      }
    }
  }
  row_ptr[rows_] = static_cast<std::uint32_t>(values.size());
  triplets_.clear();
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix identity(std::size_t n) {
  CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, 1.0);
  return builder.build();
}

}  // namespace jacepp::linalg
