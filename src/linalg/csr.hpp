// Compressed sparse row matrix with a triplet-based builder, sub-block
// extraction (for block-Jacobi multisplitting) and SpMV kernels.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "serial/serial.hpp"

namespace jacepp::linalg {

/// Most distinct diagonals a matrix may have for CsrMatrix to keep a banded
/// copy: the five of a 5-point Poisson block.
inline constexpr std::size_t kMaxBandDiagonals = 5;

/// Zero-filled diagonal-major copy of a banded matrix (DESIGN.md §9 "Banded
/// row sums"). The fused CG kernels (linalg/fused.hpp) build row sums from it
/// in a loop that vectorizes across rows.
struct Band {
  std::size_t count = 0;  ///< diagonals stored; 0 when the matrix has no band
  /// Column minus row of each stored diagonal, ascending — the order in
  /// which a CSR row with ascending columns visits them.
  std::array<std::ptrdiff_t, kMaxBandDiagonals> offsets{};
  /// values[d * rows + r] = A(r, r + offsets[d]); 0 where A stores nothing.
  Vector values;

  /// Rows [begin, end) in which the same diagonals have their column inside
  /// the matrix.
  struct Segment {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t count = 0;  ///< diagonals in range
    std::array<std::size_t, kMaxBandDiagonals> diagonals{};  ///< ascending
  };
  /// Cover rows [0, rows) in order; at most count + 1 of them, since each
  /// nonzero offset starts or ends one diagonal's range.
  std::vector<Segment> segments;
};

/// Immutable CSR sparse matrix (row-major). Build via CsrBuilder.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::uint32_t> row_ptr,
            std::vector<std::uint32_t> col_idx, std::vector<double> values);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  [[nodiscard]] const std::vector<std::uint32_t>& row_ptr() const { return row_ptr_; }
  [[nodiscard]] const std::vector<std::uint32_t>& col_idx() const { return col_idx_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  /// Banded copy, kept when the matrix is square, every row's columns are
  /// strictly ascending and its entries lie on at most kMaxBandDiagonals
  /// diagonals; otherwise band().count == 0.
  [[nodiscard]] const Band& band() const { return band_; }

  /// Value at (r, c); 0 if not stored. O(row nnz) scan — for tests/diagnostics.
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// y = A * x.
  void multiply(const Vector& x, Vector& y) const;

  /// y += A * x.
  void multiply_add(const Vector& x, Vector& y) const;

  /// Extract the sub-matrix of rows [row_lo,row_hi) and columns [col_lo,col_hi),
  /// reindexed to local coordinates. Entries outside the column window are
  /// dropped (the caller handles them as coupling terms).
  [[nodiscard]] CsrMatrix block(std::size_t row_lo, std::size_t row_hi,
                                std::size_t col_lo, std::size_t col_hi) const;

  /// For rows [row_lo,row_hi): y += (entries with columns OUTSIDE
  /// [col_lo,col_hi)) * x_global. Used to apply the off-diagonal coupling of a
  /// block row against a globally-indexed iterate.
  void off_block_multiply_add(std::size_t row_lo, std::size_t row_hi,
                              std::size_t col_lo, std::size_t col_hi,
                              const Vector& x_global, Vector& y_local) const;

  /// Transpose (used by theory checks).
  [[nodiscard]] CsrMatrix transpose() const;

  void serialize(serial::Writer& w) const;
  /// Fails the reader, instead of aborting, when the decoded arrays do not
  /// form a CSR structure (the matrix may come from a peer).
  static CsrMatrix deserialize(serial::Reader& r);

 private:
  void build_band();

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
  Band band_;
};

/// Accumulating triplet builder. Duplicate (r, c) entries are summed.
class CsrBuilder {
 public:
  CsrBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  void add(std::size_t r, std::size_t c, double v);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Sort, merge duplicates, and produce the CSR matrix.
  [[nodiscard]] CsrMatrix build();

 private:
  struct Triplet {
    std::uint32_t row;
    std::uint32_t col;
    double value;
  };

  std::size_t rows_;
  std::size_t cols_;
  std::vector<Triplet> triplets_;
};

/// Identity matrix of size n.
CsrMatrix identity(std::size_t n);

}  // namespace jacepp::linalg
