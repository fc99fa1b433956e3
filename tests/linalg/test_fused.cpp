// Determinism tests for the fused hot-path kernels (linalg/fused.hpp): each
// fused kernel must be bit-identical to the unfused sequence it replaces, and
// the banded row sums must equal the CSR row loop bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/csr.hpp"
#include "linalg/fused.hpp"
#include "linalg/vector_ops.hpp"
#include "poisson/block_task.hpp"
#include "poisson/poisson.hpp"
#include "support/rng.hpp"

#include "lane_order.hpp"

namespace jacepp::linalg {
namespace {

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// --- Fused == unfused to the last bit --------------------------------------

TEST(FusedKernels, SpmvResidualNorm2BitIdenticalToUnfused) {
  for (const std::size_t side :
       {std::size_t{3}, std::size_t{17}, std::size_t{40}}) {
    const auto a = poisson::assemble_laplacian(side);
    const Vector x = random_vector(a.cols(), 11 + side);
    const Vector b = random_vector(a.rows(), 23 + side);

    Vector ax;
    a.multiply(x, ax);
    Vector r_ref;
    residual(b, ax, r_ref);
    const double norm_ref = norm2(r_ref);

    Vector r;
    const double norm_fused = spmv_residual_norm2(a, x, b, r);
    EXPECT_TRUE(bitwise_equal(r, r_ref)) << "side=" << side;
    EXPECT_EQ(norm_fused, norm_ref) << "side=" << side;
  }
}

TEST(FusedKernels, SpmvDotBitIdenticalToUnfused) {
  for (const std::size_t side :
       {std::size_t{3}, std::size_t{17}, std::size_t{40}}) {
    const auto a = poisson::assemble_laplacian(side);
    const Vector x = random_vector(a.cols(), 31 + side);

    Vector y_ref;
    a.multiply(x, y_ref);
    const double dot_ref = dot(x, y_ref);

    Vector y;
    const double dot_fused = spmv_dot(a, x, y);
    EXPECT_TRUE(bitwise_equal(y, y_ref)) << "side=" << side;
    EXPECT_EQ(dot_fused, dot_ref) << "side=" << side;
  }
}

TEST(FusedKernels, CgUpdateBitIdenticalToAxpyPairAndDot) {
  const std::size_t n = 3 * kVectorOpGrain + 17;
  const Vector p = random_vector(n, 45);
  const Vector ap = random_vector(n, 46);
  Vector x_ref = random_vector(n, 47);
  Vector r_ref = random_vector(n, 48);
  Vector x = x_ref;
  Vector r = r_ref;
  const double alpha = 0.8125;

  axpy(alpha, p, x_ref);
  axpy(-alpha, ap, r_ref);
  const double rr_ref = dot(r_ref, r_ref);

  const double rr = cg_update(alpha, p, ap, x, r);
  EXPECT_TRUE(bitwise_equal(x, x_ref));
  EXPECT_TRUE(bitwise_equal(r, r_ref));
  EXPECT_EQ(rr, rr_ref);
}

/// Rows [0, lines * n) of the n-grid Laplacian: the local block of a task
/// that owns `lines` grid lines (every such block is the same matrix).
CsrMatrix poisson_block(std::size_t n, std::size_t lines) {
  return poisson::assemble_local_laplacian(n, 0, lines * n);
}

TEST(FusedKernels, CgFusedBitIdenticalToUnfused) {
  struct Case {
    const char* name;
    CsrMatrix a;
  };
  const Case cases[] = {
      {"laplacian 16", poisson::assemble_laplacian(16)},
      {"block 96x1", poisson_block(96, 1)},
      {"block 96x2", poisson_block(96, 2)},
      {"block 160x20", poisson_block(160, 20)},
  };
  for (const Case& c : cases) {
    const CsrMatrix& a = c.a;
    CgOptions unfused;
    unfused.fused = false;
    unfused.tolerance = 1e-10;
    unfused.max_iterations = 400;
    CgOptions fused = unfused;
    fused.fused = true;

    Vector x_unfused(a.rows(), 0.0);
    Vector x_fused(a.rows(), 0.0);
    // A cold solve, then one warm-started from its answer on a new rhs.
    for (const std::uint64_t seed : {61, 62}) {
      const Vector b = random_vector(a.rows(), seed);
      const CgResult r_unfused = conjugate_gradient(a, b, x_unfused, unfused);
      const CgResult r_fused = conjugate_gradient(a, b, x_fused, fused);
      EXPECT_TRUE(r_unfused.converged) << c.name << " seed " << seed;
      EXPECT_TRUE(r_fused.converged) << c.name << " seed " << seed;
      EXPECT_GT(r_fused.iterations, 0u) << c.name << " seed " << seed;
      EXPECT_EQ(r_fused.iterations, r_unfused.iterations)
          << c.name << " seed " << seed;
      EXPECT_EQ(r_fused.residual_norm, r_unfused.residual_norm)
          << c.name << " seed " << seed;
      EXPECT_EQ(r_fused.flops, r_unfused.flops) << c.name << " seed " << seed;
      EXPECT_TRUE(bitwise_equal(x_fused, x_unfused))
          << c.name << " seed " << seed;
    }
  }
}

// --- CG golden on a solve-large block --------------------------------------
// The 20-line block of the 160-grid (3,200 rows), rhs from seed 151, then a
// warm-started solve on the rhs from seed 152. Recorded on the tree before
// the banded row sums and the three-pass iteration; the residual and
// solution bits re-pinned when every reduction moved to the one 4-lane order
// (DESIGN.md §10), at the same iteration counts.

std::uint64_t fnv1a(const Vector& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct CgGolden {
  std::size_t iterations;
  std::uint64_t residual_bits;
  double flops;
  std::uint64_t x_fnv;
};

TEST(FusedKernels, CgGoldenOnPoissonBlock160x20) {
  const CgGolden golden[2] = {
      {160, 0x3e9547900805f20dULL, 11173680.0, 0x3a1f361d2559cd69ULL},
      {169, 0x3e9202b4a927623bULL, 11800800.0, 0x6646f4b8f999002eULL},
  };
  const CsrMatrix a = poisson_block(160, 20);
  CgOptions options;
  options.tolerance = 1e-8;
  options.max_iterations = 400;
  Vector x(a.rows(), 0.0);
  for (std::size_t solve = 0; solve < 2; ++solve) {
    const Vector b = random_vector(a.rows(), 151 + solve);
    const CgResult result = conjugate_gradient(a, b, x, options);
    EXPECT_TRUE(result.converged) << "solve " << solve;
    EXPECT_EQ(result.iterations, golden[solve].iterations) << "solve " << solve;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.residual_norm),
              golden[solve].residual_bits)
        << "solve " << solve;
    EXPECT_EQ(result.flops, golden[solve].flops) << "solve " << solve;
    EXPECT_EQ(fnv1a(x), golden[solve].x_fnv) << "solve " << solve;
  }
}

// --- Banded row sums == the CSR row loop -----------------------------------

struct Shape {
  std::string name;
  CsrMatrix a;
  std::size_t diagonals;  ///< expected band().count; 0 = takes the CSR loop
};

CsrMatrix tridiagonal(std::size_t n) {
  CsrBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.5);
    if (i > 0) b.add(i, i - 1, -1.25);
    if (i + 1 < n) b.add(i, i + 1, -0.75);
  }
  return b.build();
}

/// Diagonal plus three entries per row at random columns: far more than
/// five distinct diagonals.
CsrMatrix random_sparse(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CsrBuilder b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    b.add(r, r, 4.0);
    for (int k = 0; k < 3; ++k) b.add(r, rng.index(n), rng.uniform(-1.0, 1.0));
  }
  return b.build();
}

/// Two far diagonals, at -30 and +30: rows [20, 30) have neither in range,
/// so one band segment stores no diagonal at all.
CsrMatrix far_diagonals(std::size_t n) {
  CsrBuilder b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    if (r >= 30) b.add(r, r - 30, 0.5 + 0.01 * static_cast<double>(r));
    if (r + 30 < n) b.add(r, r + 30, -1.5);
  }
  return b.build();
}

/// A Poisson block whose rows list their columns in descending order, built
/// through the public constructor: valid CSR, but not in band order.
CsrMatrix descending_columns(const CsrMatrix& a) {
  std::vector<std::uint32_t> col_idx = a.col_idx();
  std::vector<double> values = a.values();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto lo = static_cast<std::ptrdiff_t>(a.row_ptr()[r]);
    const auto hi = static_cast<std::ptrdiff_t>(a.row_ptr()[r + 1]);
    std::reverse(col_idx.begin() + lo, col_idx.begin() + hi);
    std::reverse(values.begin() + lo, values.begin() + hi);
  }
  return CsrMatrix(a.rows(), a.cols(), a.row_ptr(), std::move(col_idx),
                   std::move(values));
}

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  for (const std::size_t n : {std::size_t{96}, std::size_t{160}}) {
    for (const std::size_t lines :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{20}}) {
      out.push_back({"block " + std::to_string(n) + "x" + std::to_string(lines),
                     poisson_block(n, lines), lines == 1 ? 3u : 5u});
    }
  }
  out.push_back({"tridiagonal 1000", tridiagonal(1000), 3});
  out.push_back({"far diagonals 50", far_diagonals(50), 2});
  out.push_back({"random 700", random_sparse(700, 5), 0});
  out.push_back(
      {"descending 96x3", descending_columns(poisson_block(96, 3)), 0});
  return out;
}

/// Operand vectors: uniform values, and uniform values with runs of +0.0
/// and -0.0 so that some products and some row sums are exact zeros.
std::vector<Vector> operands(std::size_t n, std::uint64_t seed) {
  Vector zeros = random_vector(n, seed + 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) zeros[i] = -0.0;
    if (i >= n / 3 && i < n / 2) zeros[i] = (i % 2 == 0) ? 0.0 : -0.0;
  }
  return {random_vector(n, seed), zeros};
}


/// Checks spmv_dot and spmv_residual_norm2 against CsrMatrix::multiply and
/// reference reductions in the lane order.
void expect_matches_csr(const Shape& shape) {
  const CsrMatrix& a = shape.a;
  const std::size_t n = a.rows();
  EXPECT_EQ(a.band().count, shape.diagonals) << shape.name;
  const Vector b = random_vector(n, 77);
  for (const Vector& x : operands(n, 71)) {
    Vector ax;
    a.multiply(x, ax);

    Vector y;
    const double dot_fused = spmv_dot(a, x, y);
    const double dot_ref =
        lane_order_sum(n, [&](std::size_t r) { return x[r] * ax[r]; });
    EXPECT_TRUE(bitwise_equal(y, ax)) << shape.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dot_fused),
              std::bit_cast<std::uint64_t>(dot_ref))
        << shape.name;

    Vector r_ref(n);
    for (std::size_t i = 0; i < n; ++i) r_ref[i] = b[i] - ax[i];
    Vector r;
    const double norm_fused = spmv_residual_norm2(a, x, b, r);
    const double norm_ref = std::sqrt(
        lane_order_sum(n, [&](std::size_t i) { return r_ref[i] * r_ref[i]; }));
    EXPECT_TRUE(bitwise_equal(r, r_ref)) << shape.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(norm_fused),
              std::bit_cast<std::uint64_t>(norm_ref))
        << shape.name;
  }
}

TEST(BandedRowSums, BitIdenticalToCsr) {
  for (const Shape& shape : shapes()) expect_matches_csr(shape);
}

TEST(BandedRowSums, BandHoldsTheDiagonalsInAscendingOrder) {
  const CsrMatrix a = poisson_block(96, 2);
  const Band& band = a.band();
  ASSERT_EQ(band.count, 5u);
  const std::ptrdiff_t expected[] = {-96, -1, 0, 1, 96};
  for (std::size_t d = 0; d < band.count; ++d) {
    EXPECT_EQ(band.offsets[d], expected[d]);
  }
  ASSERT_EQ(band.values.size(), 5 * a.rows());
  for (std::size_t d = 0; d < band.count; ++d) {
    for (std::size_t r = 0; r < a.rows(); ++r) {
      const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(r) + band.offsets[d];
      const double stored =
          c >= 0 && c < static_cast<std::ptrdiff_t>(a.cols())
              ? a.at(r, static_cast<std::size_t>(c))
              : 0.0;
      EXPECT_EQ(band.values[d * a.rows() + r], stored) << d << "," << r;
    }
  }
  // Rows of a segment use exactly the diagonals whose column is in range.
  struct Expected {
    std::size_t begin, end;
    std::vector<std::size_t> diagonals;
  };
  const Expected segments[] = {{0, 1, {2, 3, 4}},
                               {1, 96, {1, 2, 3, 4}},
                               {96, 191, {0, 1, 2, 3}},
                               {191, 192, {0, 1, 2}}};
  ASSERT_EQ(band.segments.size(), std::size(segments));
  for (std::size_t i = 0; i < band.segments.size(); ++i) {
    const Band::Segment& seg = band.segments[i];
    EXPECT_EQ(seg.begin, segments[i].begin) << i;
    EXPECT_EQ(seg.end, segments[i].end) << i;
    EXPECT_EQ(std::vector<std::size_t>(seg.diagonals.begin(),
                                       seg.diagonals.begin() + seg.count),
              segments[i].diagonals)
        << i;
  }
  // Rectangular and empty matrices keep no band.
  EXPECT_EQ(a.block(0, 96, 0, 192).band().count, 0u);
  EXPECT_EQ(CsrMatrix().band().count, 0u);
}

}  // namespace
}  // namespace jacepp::linalg
