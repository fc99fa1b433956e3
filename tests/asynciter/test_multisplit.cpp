#include "asynciter/multisplit.hpp"

#include <gtest/gtest.h>

#include "linalg/vector_ops.hpp"
#include "poisson/poisson.hpp"

namespace jacepp::asynciter {
namespace {

using linalg::partition_rows;

MultisplitOptions tight_options() {
  MultisplitOptions opt;
  opt.tolerance = 1e-9;
  opt.inner.tolerance = 1e-12;
  opt.inner.max_iterations = 2000;
  opt.max_outer_iterations = 5000;
  return opt;
}

TEST(Multisplit, SynchronousMatchesReference) {
  const auto problem = poisson::make_default_problem(16);
  const auto blocks = partition_rows(256, 4, 16, 0);
  auto opt = tight_options();
  opt.mode = IterationMode::Synchronous;
  const auto result = run_multisplitting(problem.a, problem.b, blocks, opt);
  ASSERT_TRUE(result.converged);
  const auto ref = poisson::reference_solve(problem);
  EXPECT_LT(linalg::distance_inf(result.x, ref), 1e-6);
  EXPECT_GT(result.total_inner_flops, 0.0);
}

TEST(Multisplit, SingleBlockConvergesInOneIteration) {
  const auto problem = poisson::make_default_problem(10);
  const auto blocks = partition_rows(100, 1, 10, 0);
  auto opt = tight_options();
  const auto result = run_multisplitting(problem.a, problem.b, blocks, opt);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.outer_iterations, 1u);
}

TEST(Multisplit, AsynchronousConvergesToSameFixedPoint) {
  // The paper's premise (§1, §6): block-Jacobi on an M-matrix converges under
  // asynchronous (bounded-delay) iterations to the same solution.
  const auto problem = poisson::make_default_problem(16);
  const auto blocks = partition_rows(256, 4, 16, 0);
  auto opt = tight_options();
  opt.mode = IterationMode::AsyncBoundedDelay;
  opt.staleness_probability = 0.5;
  opt.max_staleness = 3;
  const auto result = run_multisplitting(problem.a, problem.b, blocks, opt);
  ASSERT_TRUE(result.converged);
  const auto ref = poisson::reference_solve(problem);
  EXPECT_LT(linalg::distance_inf(result.x, ref), 1e-6);
}

TEST(Multisplit, AsynchronousNeedsMoreIterationsThanSynchronous) {
  const auto problem = poisson::make_default_problem(16);
  const auto blocks = partition_rows(256, 4, 16, 0);
  auto opt = tight_options();
  opt.mode = IterationMode::Synchronous;
  const auto sync = run_multisplitting(problem.a, problem.b, blocks, opt);
  opt.mode = IterationMode::AsyncBoundedDelay;
  opt.staleness_probability = 0.6;
  const auto async = run_multisplitting(problem.a, problem.b, blocks, opt);
  ASSERT_TRUE(sync.converged);
  ASSERT_TRUE(async.converged);
  // Stale reads slow per-round progress; async rounds >= sync rounds.
  EXPECT_GE(async.outer_iterations, sync.outer_iterations);
}

TEST(Multisplit, OverlapReducesIterations) {
  // Paper §6: overlapping "may dramatically reduce the number of iterations".
  const auto problem = poisson::make_default_problem(24);
  auto opt = tight_options();
  opt.mode = IterationMode::Synchronous;
  const auto plain =
      run_multisplitting(problem.a, problem.b,
                         partition_rows(576, 4, 24, 0), opt);
  const auto overlapped =
      run_multisplitting(problem.a, problem.b,
                         partition_rows(576, 4, 24, 2 * 24), opt);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(overlapped.converged);
  EXPECT_LT(overlapped.outer_iterations, plain.outer_iterations);
}

TEST(Multisplit, RespectsIterationCap) {
  const auto problem = poisson::make_default_problem(16);
  const auto blocks = partition_rows(256, 4, 16, 0);
  auto opt = tight_options();
  opt.max_outer_iterations = 2;
  const auto result = run_multisplitting(problem.a, problem.b, blocks, opt);
  EXPECT_FALSE(result.converged);
  EXPECT_FALSE(result.stalled);
  EXPECT_EQ(result.outer_iterations, 2u);
}

TEST(Multisplit, SynchronousRunStopsAtAFixedPoint) {
  // bench_overlap's A4 cell without overlap reaches a relative residual just
  // above 1e-8, after which every round publishes the slices of the round
  // before: the run stops there, not at the cap, and has not converged.
  const auto problem = poisson::make_default_problem(64);
  const auto blocks = partition_rows(64 * 64, 8, 64, 0);
  MultisplitOptions opt;
  opt.mode = IterationMode::Synchronous;
  opt.tolerance = 1e-8;
  opt.inner.tolerance = 1e-10;
  opt.inner.max_iterations = 4000;
  opt.max_outer_iterations = 2000;
  const auto result = run_multisplitting(problem.a, problem.b, blocks, opt);
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.stalled);
  EXPECT_LT(result.outer_iterations, opt.max_outer_iterations);
  EXPECT_GT(result.final_residual, opt.tolerance);
  EXPECT_LT(result.final_residual, 2 * opt.tolerance);
}

TEST(Multisplit, DeterministicForSeed) {
  const auto problem = poisson::make_default_problem(12);
  const auto blocks = partition_rows(144, 3, 12, 0);
  auto opt = tight_options();
  opt.mode = IterationMode::AsyncBoundedDelay;
  opt.seed = 99;
  const auto a = run_multisplitting(problem.a, problem.b, blocks, opt);
  const auto b = run_multisplitting(problem.a, problem.b, blocks, opt);
  EXPECT_EQ(a.outer_iterations, b.outer_iterations);
  EXPECT_EQ(a.x, b.x);
}

// Property sweep over block counts and staleness: async always converges to
// the true solution (rho(|T|) < 1 for this family).
struct AsyncCase {
  std::size_t parts;
  double staleness;
  std::size_t max_staleness;
  std::uint64_t seed;
};

class MultisplitAsyncProperty : public ::testing::TestWithParam<AsyncCase> {};

TEST_P(MultisplitAsyncProperty, ConvergesToTrueSolution) {
  const auto& param = GetParam();
  const auto mp = poisson::make_manufactured_problem(12, 500 + param.seed);
  const auto blocks = partition_rows(144, param.parts, 12, 0);
  auto opt = tight_options();
  opt.mode = IterationMode::AsyncBoundedDelay;
  opt.staleness_probability = param.staleness;
  opt.max_staleness = param.max_staleness;
  opt.seed = param.seed;
  opt.tolerance = 1e-8;
  const auto result = run_multisplitting(mp.problem.a, mp.problem.b, blocks, opt);
  ASSERT_TRUE(result.converged);
  EXPECT_LT(linalg::distance_inf(result.x, mp.exact), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultisplitAsyncProperty,
    ::testing::Values(AsyncCase{2, 0.2, 1, 1}, AsyncCase{3, 0.5, 2, 2},
                      AsyncCase{4, 0.8, 3, 3}, AsyncCase{6, 0.5, 5, 4},
                      AsyncCase{12, 0.3, 2, 5}, AsyncCase{4, 0.95, 4, 6}));

}  // namespace
}  // namespace jacepp::asynciter
