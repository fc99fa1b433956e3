#include "linalg/cg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include "poisson/poisson.hpp"
#include "support/rng.hpp"

namespace jacepp::linalg {
namespace {

CsrMatrix tridiag_spd(std::size_t n) {
  CsrBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  return b.build();
}

TEST(Cg, SolvesTridiagonalExactly) {
  const std::size_t n = 50;
  const auto a = tridiag_spd(n);
  Rng rng(1);
  Vector exact(n);
  for (auto& v : exact) v = rng.uniform(-1, 1);
  Vector b;
  a.multiply(exact, b);

  Vector x;
  CgOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 500;
  const auto result = conjugate_gradient(a, b, x, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(distance_inf(x, exact), 1e-8);
  EXPECT_GT(result.flops, 0.0);
}

TEST(Cg, ZeroRhsGivesZeroSolutionImmediately) {
  const auto a = tridiag_spd(10);
  Vector b(10, 0.0);
  Vector x;
  const auto result = conjugate_gradient(a, b, x);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Cg, WarmStartAtSolutionReturnsImmediately) {
  const std::size_t n = 30;
  const auto a = tridiag_spd(n);
  Rng rng(2);
  Vector exact(n);
  for (auto& v : exact) v = rng.uniform(-1, 1);
  Vector b;
  a.multiply(exact, b);

  Vector x = exact;  // already solved
  const auto result = conjugate_gradient(a, b, x);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(Cg, RespectsIterationCap) {
  const auto a = tridiag_spd(200);
  Vector b(200, 1.0);
  Vector x;
  CgOptions options;
  options.tolerance = 1e-14;
  options.max_iterations = 3;
  const auto result = conjugate_gradient(a, b, x, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 3u);
}

TEST(Cg, ResidualNormMatchesActualResidual) {
  const auto a = tridiag_spd(40);
  Vector b(40, 1.0);
  Vector x;
  CgOptions options;
  options.tolerance = 1e-6;
  const auto result = conjugate_gradient(a, b, x, options);
  ASSERT_TRUE(result.converged);
  Vector ax;
  a.multiply(x, ax);
  double r2 = 0;
  for (std::size_t i = 0; i < 40; ++i) r2 += (b[i] - ax[i]) * (b[i] - ax[i]);
  EXPECT_NEAR(std::sqrt(r2), result.residual_norm, 1e-9);
}

// Parameterized over grid size: CG on the 2-D Poisson matrix matches the
// known discrete solution for every size.
class CgPoisson : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CgPoisson, MatchesManufacturedSolution) {
  const std::size_t n = GetParam();
  const auto mp = poisson::make_manufactured_problem(n, 1000 + n);
  Vector x;
  CgOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 20 * n * n;
  const auto result = conjugate_gradient(mp.problem.a, mp.problem.b, x, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(distance_inf(x, mp.exact), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(GridSizes, CgPoisson,
                         ::testing::Values(4, 6, 8, 12, 16, 24, 32));

}  // namespace
}  // namespace jacepp::linalg
