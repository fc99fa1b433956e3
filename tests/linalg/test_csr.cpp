#include "linalg/csr.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "poisson/poisson.hpp"
#include "serial/serial.hpp"
#include "support/rng.hpp"

namespace jacepp::linalg {
namespace {

CsrMatrix small_matrix() {
  // [ 2 -1  0 ]
  // [-1  2 -1 ]
  // [ 0 -1  2 ]
  CsrBuilder b(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < 3) b.add(i, i + 1, -1.0);
  }
  return b.build();
}

TEST(Csr, BuildAndInspect) {
  const auto a = small_matrix();
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_EQ(a.nnz(), 7u);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), -1.0);
}

TEST(Csr, DuplicateTripletsAreSummed) {
  CsrBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 1, -1.0);
  b.add(1, 1, 1.0);  // cancels to zero: entry dropped
  const auto a = b.build();
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.5);
  EXPECT_EQ(a.nnz(), 1u);
}

TEST(Csr, Multiply) {
  const auto a = small_matrix();
  Vector x{1, 2, 3};
  Vector y;
  a.multiply(x, y);
  EXPECT_EQ(y, (Vector{0, 0, 4}));
}

TEST(Csr, MultiplyAddAccumulates) {
  const auto a = small_matrix();
  Vector x{1, 2, 3};
  Vector y{10, 10, 10};
  a.multiply_add(x, y);
  EXPECT_EQ(y, (Vector{10, 10, 14}));
}

TEST(Csr, BlockExtraction) {
  const auto a = small_matrix();
  const auto block = a.block(1, 3, 1, 3);
  EXPECT_EQ(block.rows(), 2u);
  EXPECT_EQ(block.cols(), 2u);
  EXPECT_DOUBLE_EQ(block.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(block.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(block.at(1, 0), -1.0);
  // The -1 coupling to column 0 is outside the window and must be dropped.
  EXPECT_EQ(block.nnz(), 4u);
}

TEST(Csr, OffBlockMultiplyAdd) {
  const auto a = small_matrix();
  // Rows [1,3) with column window [1,3): the only outside entry is
  // A(1,0) = -1 acting on x_global[0].
  Vector x_global{10, 0, 0};
  Vector y_local(2, 0.0);
  a.off_block_multiply_add(1, 3, 1, 3, x_global, y_local);
  EXPECT_EQ(y_local, (Vector{-10, 0}));
}

TEST(Csr, BlockPlusOffBlockEqualsFullRow) {
  // For any window, block*x_in + off_block*x_global == (A x)[rows].
  Rng rng(77);
  CsrBuilder b(8, 8);
  for (int k = 0; k < 30; ++k) {
    b.add(rng.index(8), rng.index(8), rng.uniform(-2, 2));
  }
  const auto a = b.build();
  Vector x(8);
  for (auto& v : x) v = rng.uniform(-1, 1);

  Vector full;
  a.multiply(x, full);

  const std::size_t lo = 2;
  const std::size_t hi = 6;
  const auto block = a.block(lo, hi, lo, hi);
  Vector x_in(x.begin() + lo, x.begin() + hi);
  Vector y;
  block.multiply(x_in, y);
  a.off_block_multiply_add(lo, hi, lo, hi, x, y);
  for (std::size_t i = 0; i < hi - lo; ++i) {
    EXPECT_NEAR(y[i], full[lo + i], 1e-12);
  }
}

TEST(Csr, Transpose) {
  CsrBuilder b(2, 3);
  b.add(0, 1, 5.0);
  b.add(1, 2, -3.0);
  const auto a = b.build();
  const auto t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(t.at(2, 1), -3.0);
  EXPECT_EQ(t.nnz(), 2u);
}

TEST(Csr, Identity) {
  const auto eye = identity(4);
  Vector x{1, 2, 3, 4};
  Vector y;
  eye.multiply(x, y);
  EXPECT_EQ(y, x);
}

TEST(Csr, SerializationRoundTrip) {
  const auto a = small_matrix();
  const auto bytes = serial::encode(a);
  const auto b = serial::decode<CsrMatrix>(bytes);
  EXPECT_EQ(b.rows(), a.rows());
  EXPECT_EQ(b.cols(), a.cols());
  EXPECT_EQ(b.row_ptr(), a.row_ptr());
  EXPECT_EQ(b.col_idx(), a.col_idx());
  EXPECT_EQ(b.values(), a.values());
}

/// The wire fields of a CSR matrix, encoded as given, valid or not.
serial::Bytes encode_fields(std::uint64_t rows, std::uint64_t cols,
                            const std::vector<std::uint32_t>& row_ptr,
                            const std::vector<std::uint32_t>& col_idx,
                            const std::vector<double>& values) {
  serial::Writer w;
  w.varint(rows);
  w.varint(cols);
  w.u32_vector(row_ptr);
  w.u32_vector(col_idx);
  w.f64_vector(values);
  return w.take();
}

/// Whether the reader accepts the bytes as a matrix; a rejected matrix must
/// fail the reader, never abort or read out of bounds.
bool decodes(const serial::Bytes& bytes) {
  serial::Reader reader(bytes);
  const auto a = reader.object<CsrMatrix>();
  if (!reader.ok()) {
    EXPECT_EQ(a.rows(), 0u);
  }
  return reader.ok();
}

TEST(Csr, DeserializeRejectsMalformedStructure) {
  // small_matrix()'s arrays.
  const std::vector<std::uint32_t> row_ptr = {0, 2, 5, 7};
  const std::vector<std::uint32_t> cols = {0, 1, 0, 1, 2, 1, 2};
  const std::vector<double> vals = {2, -1, -1, 2, -1, -1, 2};
  ASSERT_TRUE(decodes(encode_fields(3, 3, row_ptr, cols, vals)));

  // Truncated: every strict prefix of a valid encoding.
  const serial::Bytes valid = serial::encode(small_matrix());
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(decodes(serial::Bytes(valid.begin(), valid.begin() + len)))
        << "prefix " << len;
  }

  // Row pointers: one per row plus one, from 0, never decreasing, to nnz.
  EXPECT_FALSE(decodes(encode_fields(2, 3, row_ptr, cols, vals)));
  EXPECT_FALSE(decodes(encode_fields(3, 3, {0, 2, 7}, cols, vals)));
  EXPECT_FALSE(decodes(encode_fields(std::numeric_limits<std::uint64_t>::max(),
                                     3, {}, {}, {})));
  EXPECT_FALSE(decodes(encode_fields(3, 3, {1, 2, 5, 7}, cols, vals)));
  EXPECT_FALSE(decodes(encode_fields(3, 3, {0, 5, 2, 7}, cols, vals)));
  EXPECT_FALSE(decodes(encode_fields(3, 3, {0, 9, 5, 7}, cols, vals)));
  EXPECT_FALSE(decodes(encode_fields(3, 3, {0, 2, 5, 6}, cols, vals)));
  EXPECT_FALSE(decodes(encode_fields(3, 3, {0, 2, 5, 9}, cols, vals)));

  // Columns: one per value, each below cols.
  EXPECT_FALSE(decodes(encode_fields(3, 3, row_ptr, {0, 1, 0, 1, 2, 1}, vals)));
  for (const std::uint32_t bad : {3u, 0xffffffffu}) {
    std::vector<std::uint32_t> out_of_range = cols;
    out_of_range[4] = bad;
    EXPECT_FALSE(decodes(encode_fields(3, 3, row_ptr, out_of_range, vals)))
        << "column " << bad;
  }
  // The same columns fit a wider matrix.
  std::vector<std::uint32_t> wide = cols;
  wide[4] = 3;
  EXPECT_TRUE(decodes(encode_fields(3, 4, row_ptr, wide, vals)));
}

TEST(Csr, EmptyRowsHandled) {
  CsrBuilder b(3, 3);
  b.add(0, 0, 1.0);
  b.add(2, 2, 1.0);
  const auto a = b.build();
  Vector x{1, 1, 1};
  Vector y;
  a.multiply(x, y);
  EXPECT_EQ(y, (Vector{1, 0, 1}));
}

// Generated from the CSR kernel when the SIMD layer was introduced; the dot
// was re-pinned when every reduction moved to the one 4-lane order
// (DESIGN.md §10). Every later kernel must reproduce them bit for bit.
constexpr std::uint64_t kGoldenSpmv0 = 0x4097d34978e70f8cULL;  // 1524.8217502692451
constexpr std::uint64_t kGoldenSpmv511 = 0x40793dded6275844ULL;  // 403.86690345162447
constexpr std::uint64_t kGoldenSpmv1023 = 0x40a9c1c2e7d6aa40ULL;  // 3296.8806750376534
constexpr std::uint64_t kGoldenSpmvDot = 0x41367dcfe86bea28ULL;  // 1473999.9078966472

TEST(Csr, SpmvMatchesCommittedGoldens) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto a = poisson::assemble_laplacian(32);
  Rng rng(7);
  Vector xs(a.cols());
  for (double& x : xs) x = rng.uniform(-1.0, 1.0);
  Vector ys;
  a.multiply(xs, ys);
  ASSERT_EQ(ys.size(), 1024u);
  EXPECT_EQ(bits(ys[0]), kGoldenSpmv0);
  EXPECT_EQ(bits(ys[511]), kGoldenSpmv511);
  EXPECT_EQ(bits(ys[1023]), kGoldenSpmv1023);
  EXPECT_EQ(bits(dot(xs, ys)), kGoldenSpmvDot);
}

}  // namespace
}  // namespace jacepp::linalg
