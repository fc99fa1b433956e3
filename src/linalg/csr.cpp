#include "linalg/csr.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace jacepp::linalg {

namespace {

/// True when the arrays form a CSR structure: rows + 1 row pointers that
/// start at 0, never decrease and end at nnz, and nnz columns, each below
/// `cols`.
bool valid_structure(std::size_t rows, std::size_t cols,
                     const std::vector<std::uint32_t>& row_ptr,
                     const std::vector<std::uint32_t>& col_idx,
                     std::size_t nnz) {
  if (row_ptr.empty() || row_ptr.size() - 1 != rows) return false;
  if (row_ptr.front() != 0 || row_ptr.back() != nnz) return false;
  if (col_idx.size() != nnz) return false;
  for (std::size_t r = 0; r < rows; ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) return false;
  }
  return std::all_of(col_idx.begin(), col_idx.end(),
                     [cols](std::uint32_t c) { return c < cols; });
}

}  // namespace

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::uint32_t> row_ptr,
                     std::vector<std::uint32_t> col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  JACEPP_ASSERT(
      valid_structure(rows_, cols_, row_ptr_, col_idx_, values_.size()));
  build_band();
}

void CsrMatrix::build_band() {
  if (rows_ == 0 || rows_ != cols_) return;
  Band band;
  const auto offset_of = [](std::size_t r, std::uint32_t c) {
    return static_cast<std::ptrdiff_t>(c) - static_cast<std::ptrdiff_t>(r);
  };
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (k > row_ptr_[r] && col_idx_[k] <= col_idx_[k - 1]) return;
      const std::ptrdiff_t off = offset_of(r, col_idx_[k]);
      const auto stored = band.offsets.begin() + band.count;
      if (std::find(band.offsets.begin(), stored, off) != stored) continue;
      if (band.count == kMaxBandDiagonals) return;
      band.offsets[band.count++] = off;
    }
  }
  if (band.count == 0) return;

  const auto first = band.offsets.begin();
  const auto last = first + band.count;
  std::sort(first, last);
  band.values.assign(band.count * rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const auto d = static_cast<std::size_t>(
          std::find(first, last, offset_of(r, col_idx_[k])) - first);
      band.values[d * rows_ + r] = values_[k];
    }
  }
  // Diagonal d has its column in range on rows [lo_d, hi_d), never empty
  // since |offset| < rows; segments break wherever such a range starts or
  // ends.
  const auto n = static_cast<std::ptrdiff_t>(rows_);
  std::vector<std::ptrdiff_t> breaks = {0, n};
  for (auto off = first; off != last; ++off) {
    breaks.push_back(std::max<std::ptrdiff_t>(0, -*off));
    breaks.push_back(std::min(n, n - *off));
  }
  std::sort(breaks.begin(), breaks.end());
  breaks.erase(std::unique(breaks.begin(), breaks.end()), breaks.end());
  for (std::size_t i = 0; i + 1 < breaks.size(); ++i) {
    Band::Segment seg;
    seg.begin = static_cast<std::size_t>(breaks[i]);
    seg.end = static_cast<std::size_t>(breaks[i + 1]);
    for (std::size_t d = 0; d < band.count; ++d) {
      const std::ptrdiff_t off = band.offsets[d];
      if (breaks[i] >= -off && breaks[i + 1] <= n - off) {
        seg.diagonals[seg.count++] = d;
      }
    }
    band.segments.push_back(seg);
  }
  band_ = std::move(band);
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
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      acc += values[k] * xs[col_idx[k]];
    }
    ys[r] += acc;
  }
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
  for (std::size_t r = row_lo; r < row_hi; ++r) {
    double acc = 0.0;
    for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::uint32_t c = col_idx[k];
      if (c < col_lo || c >= col_hi) acc += values[k] * xs[c];
    }
    ys[r - row_lo] += acc;
  }
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
  if (!valid_structure(rows, cols, row_ptr, col_idx, values.size())) {
    r.poison("malformed CSR structure");
    return {};
  }
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
