#include "linalg/vector_ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "linalg/csr.hpp"
#include "linalg/kernels.hpp"
#include "linalg/simd.hpp"
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(VectorOps, Axpy) {
  Vector x{1, 2, 3};
  Vector y{10, 20, 30};
  axpy(2.0, x, y);
  EXPECT_EQ(y, (Vector{12, 24, 36}));
}

TEST(VectorOps, Axpby) {
  Vector x{1, 2, 3};
  Vector y{10, 20, 30};
  axpby(2.0, x, 0.5, y);
  EXPECT_EQ(y, (Vector{7, 14, 21}));
}

TEST(VectorOps, Dot) {
  Vector x{1, 2, 3};
  Vector y{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  EXPECT_DOUBLE_EQ(dot(Vector{}, Vector{}), 0.0);
}

TEST(VectorOps, Norms) {
  Vector x{3, -4};
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(x), 4.0);
  EXPECT_DOUBLE_EQ(norm2(Vector{}), 0.0);
  EXPECT_DOUBLE_EQ(norm_inf(Vector{}), 0.0);
}

TEST(VectorOps, Distances) {
  Vector x{1, 2, 3};
  Vector y{1, 4, 3};
  EXPECT_DOUBLE_EQ(distance2(x, y), 2.0);
  EXPECT_DOUBLE_EQ(distance_inf(x, y), 2.0);
  EXPECT_DOUBLE_EQ(distance2(x, x), 0.0);
}

TEST(VectorOps, ScaleAndFill) {
  Vector x{1, -2, 4};
  scale(x, -0.5);
  EXPECT_EQ(x, (Vector{-0.5, 1, -2}));
  fill(x, 7.0);
  EXPECT_EQ(x, (Vector{7, 7, 7}));
}

TEST(VectorOps, Residual) {
  Vector b{5, 6};
  Vector ax{1, 2};
  Vector r;
  residual(b, ax, r);
  EXPECT_EQ(r, (Vector{4, 4}));
}

// Re-pinned when every reduction moved to the one 4-lane order (DESIGN.md
// §10); every build of the kernels must reproduce them bit for bit.
constexpr std::uint64_t kGoldenDot = 0xc017a646dfc2a08aULL;  // -5.9123797380963286
constexpr std::uint64_t kGoldenNorm2 = 0x40328d6df212a853ULL;  // 18.55245888667589

TEST(VectorOps, Blas1MatchesCommittedGoldens) {
  const Vector x = random_vector(1003, 42);
  const Vector y = random_vector(1003, 43);
  EXPECT_EQ(bits(dot(x, y)), kGoldenDot);
  EXPECT_EQ(bits(norm2(x)), kGoldenNorm2);
}

double ref_dot(const Vector& x, const Vector& y) {
  return lane_order_sum(x.size(),
                                 [&](std::size_t i) { return x[i] * y[i]; });
}

TEST(ParallelKernelDeterminism, SerialPoolIsBitIdenticalToReferenceLoops) {
  // Every kernel is the loop written out below, its reduction folded in the
  // lane order (lane_order.hpp), to the last bit, from the empty vector up
  // to a few thousand elements.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kVectorOpGrain - 1, kVectorOpGrain + 1,
        3 * kVectorOpGrain + 41}) {
    const Vector x = random_vector(n, 77 + n);
    const Vector y = random_vector(n, 78 + n);
    EXPECT_EQ(bits(dot(x, y)), bits(ref_dot(x, y))) << "n=" << n;
    EXPECT_EQ(bits(norm2(x)), bits(std::sqrt(ref_dot(x, x)))) << "n=" << n;

    const double ref_d2 = lane_order_sum(n, [&](std::size_t i) {
      const double d = x[i] - y[i];
      return d * d;
    });
    double ref_di = 0.0;
    double ref_ni = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ref_di = std::max(ref_di, std::fabs(x[i] - y[i]));
      ref_ni = std::max(ref_ni, std::fabs(x[i]));
    }
    EXPECT_EQ(bits(distance2(x, y)), bits(std::sqrt(ref_d2))) << "n=" << n;
    EXPECT_EQ(distance_inf(x, y), ref_di) << "n=" << n;
    EXPECT_EQ(norm_inf(x), ref_ni) << "n=" << n;

    Vector got = y;
    Vector expected = y;
    for (std::size_t i = 0; i < n; ++i) expected[i] += 0.75 * x[i];
    axpy(0.75, x, got);
    EXPECT_EQ(got, expected) << "axpy n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] = -1.5 * x[i] + 0.25 * expected[i];
    }
    axpby(-1.5, x, 0.25, got);
    EXPECT_EQ(got, expected) << "axpby n=" << n;
  }

  for (const std::size_t side : {std::size_t{2}, std::size_t{17}, std::size_t{40}}) {
    const auto a = poisson::assemble_laplacian(side);
    const Vector x = random_vector(a.cols(), 79 + side);
    Vector ref(a.rows(), 0.0);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      double acc = 0.0;
      for (std::uint32_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
        acc += a.values()[k] * x[a.col_idx()[k]];
      }
      ref[r] += acc;
    }
    Vector got;
    a.multiply(x, got);
    EXPECT_EQ(got, ref) << "side=" << side;

    Vector got_add = random_vector(a.rows(), 57 + side);
    Vector ref_add = got_add;
    for (std::size_t r = 0; r < a.rows(); ++r) ref_add[r] += ref[r];
    a.multiply_add(x, got_add);
    EXPECT_EQ(got_add, ref_add) << "multiply_add side=" << side;
  }
}

TEST(SimdDetection, ActiveLevelIsThePickedBuildAndLevelsAreNamed) {
  // The AVX2 build runs exactly where the CPU has AVX2 and the target has
  // the build; anywhere else the baseline build runs.
  const Kernels* avx2 = avx2_kernels();
  const bool use_avx2 =
      avx2 != nullptr && simd::detected_level() >= simd::Level::avx2;
  EXPECT_EQ(&kernels(), use_avx2 ? avx2 : &baseline_kernels());
  EXPECT_EQ(simd::active_level(), kernels().level);
  if (avx2 != nullptr) {
    EXPECT_EQ(avx2->level, simd::Level::avx2);
  }
  EXPECT_STREQ(simd::level_name(simd::Level::scalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::sse2), "sse2");
  EXPECT_STREQ(simd::level_name(simd::Level::avx2), "avx2");
  const simd::Level detected = simd::detected_level();
  EXPECT_TRUE(detected == simd::Level::scalar ||
              detected == simd::Level::sse2 || detected == simd::Level::avx2);
}

}  // namespace
}  // namespace jacepp::linalg
