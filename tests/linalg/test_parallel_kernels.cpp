// Parity tests for the parallel kernels: across pool sizes {1, 2, 8} and
// sizes straddling the chunk grain, every kernel must agree with a plain
// serial reference loop — to the last bit for pool size 1 (the determinism
// contract the simulator relies on), and within 1e-12 relative error for
// parallel pools (chunked reductions reassociate floating-point sums).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"
#include "poisson/poisson.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace jacepp::linalg {
namespace {

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

double ref_dot(const Vector& x, const Vector& y) {
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

void ref_multiply(const CsrMatrix& a, const Vector& x, Vector& y) {
  y.assign(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::uint32_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      acc += a.values()[k] * x[a.col_idx()[k]];
    }
    y[r] += acc;
  }
}

constexpr double kTol = 1e-12;

class ParallelKernelParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelKernelParity, VectorReductionsMatchSerial) {
  ThreadPool pool(GetParam());
  ScopedComputePool scoped(pool);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kVectorOpGrain - 1, kVectorOpGrain + 1,
        3 * kVectorOpGrain + 7}) {
    const Vector x = random_vector(n, 11 + n);
    const Vector y = random_vector(n, 23 + n);

    const double ref = ref_dot(x, y);
    EXPECT_NEAR(dot(x, y), ref, kTol * (std::fabs(ref) + 1.0)) << "n=" << n;

    const double ref_n2 = std::sqrt(ref_dot(x, x));
    EXPECT_NEAR(norm2(x), ref_n2, kTol * (ref_n2 + 1.0)) << "n=" << n;

    double ref_d2 = 0.0;
    double ref_di = 0.0;
    double ref_ni = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = x[i] - y[i];
      ref_d2 += d * d;
      ref_di = std::max(ref_di, std::fabs(d));
      ref_ni = std::max(ref_ni, std::fabs(x[i]));
    }
    EXPECT_NEAR(distance2(x, y), std::sqrt(ref_d2), kTol * (std::sqrt(ref_d2) + 1.0));
    EXPECT_EQ(distance_inf(x, y), ref_di);  // max is associative: exact
    EXPECT_EQ(norm_inf(x), ref_ni);
  }
}

TEST_P(ParallelKernelParity, ElementwiseKernelsAreExact) {
  // axpy/axpby/scale/fill touch disjoint elements — parallel runs
  // must be bit-identical to serial at any pool size.
  ThreadPool pool(GetParam());
  ScopedComputePool scoped(pool);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kVectorOpGrain - 1, kVectorOpGrain + 1,
        2 * kVectorOpGrain + 13}) {
    const Vector x = random_vector(n, 5 + n);
    Vector y = random_vector(n, 9 + n);
    Vector expected = y;
    for (std::size_t i = 0; i < n; ++i) expected[i] += 0.75 * x[i];
    axpy(0.75, x, y);
    EXPECT_EQ(y, expected) << "axpy n=" << n;

    for (std::size_t i = 0; i < n; ++i) {
      expected[i] = -1.5 * x[i] + 0.25 * expected[i];
    }
    axpby(-1.5, x, 0.25, y);
    EXPECT_EQ(y, expected) << "axpby n=" << n;
  }
}

TEST_P(ParallelKernelParity, SpmvMatchesSerial) {
  ThreadPool pool(GetParam());
  ScopedComputePool scoped(pool);
  // Grid sides around the row grain: 16^2=256 rows straddles kSpmvRowGrain.
  for (const std::size_t side : {std::size_t{2}, std::size_t{15},
                                 std::size_t{16}, std::size_t{17},
                                 std::size_t{40}}) {
    const auto a = poisson::assemble_laplacian(side);
    const Vector x = random_vector(a.cols(), 31 + side);
    Vector y;
    a.multiply(x, y);
    Vector ref;
    ref_multiply(a, x, ref);
    ASSERT_EQ(y.size(), ref.size());
    for (std::size_t r = 0; r < ref.size(); ++r) {
      // Row sums are computed within one chunk, so even parallel runs are
      // exact per row.
      ASSERT_EQ(y[r], ref[r]) << "side=" << side << " row=" << r;
    }

    Vector y_add = random_vector(a.rows(), 57 + side);
    Vector ref_add = y_add;
    a.multiply_add(x, y_add);
    for (std::size_t r = 0; r < ref.size(); ++r) {
      ASSERT_EQ(y_add[r], ref_add[r] + ref[r]) << "multiply_add row=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ParallelKernelParity,
                         ::testing::Values(1, 2, 8));

TEST(ParallelKernelDeterminism, SerialPoolIsBitIdenticalToReferenceLoops) {
  // JACEPP_THREADS=1 (pool size 1) must reproduce the pre-parallel serial
  // kernels bit for bit — EXPECT_EQ, not EXPECT_NEAR.
  ThreadPool pool(1);
  ScopedComputePool scoped(pool);
  const std::size_t n = 3 * kVectorOpGrain + 41;
  const Vector x = random_vector(n, 77);
  const Vector y = random_vector(n, 78);
  EXPECT_EQ(dot(x, y), ref_dot(x, y));
  EXPECT_EQ(norm2(x), std::sqrt(ref_dot(x, x)));

  const auto a = poisson::assemble_laplacian(24);
  const Vector xv = random_vector(a.cols(), 79);
  Vector got;
  Vector ref;
  a.multiply(xv, got);
  ref_multiply(a, xv, ref);
  EXPECT_EQ(got, ref);
}

TEST(ParallelKernelDeterminism, ParallelResultsAgreeAcrossPoolSizes) {
  // Chunking depends only on (range, grain): sizes 2 and 8 must agree exactly.
  const std::size_t n = 5 * kVectorOpGrain + 3;
  const Vector x = random_vector(n, 101);
  const Vector y = random_vector(n, 102);
  double dot2 = 0.0;
  double dot8 = 0.0;
  {
    ThreadPool pool(2);
    ScopedComputePool scoped(pool);
    dot2 = dot(x, y);
  }
  {
    ThreadPool pool(8);
    ScopedComputePool scoped(pool);
    dot8 = dot(x, y);
  }
  EXPECT_EQ(dot2, dot8);
}

}  // namespace
}  // namespace jacepp::linalg
