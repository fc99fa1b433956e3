// GenericMultisplitTask: any SPD system on JaceP2P, dependency sets derived
// from the sparsity pattern.
#include <gtest/gtest.h>

#include "core/deployment.hpp"
#include "core/generic_task.hpp"
#include "linalg/vector_ops.hpp"
#include "poisson/poisson.hpp"
#include "serial/checksum.hpp"
#include "support/rng.hpp"

namespace jacepp::core {
namespace {

/// Random SPD matrix: A = L Lᵀ + n·I from a sparse random L (diagonally
/// boosted to stay well-conditioned), plus some off-block coupling.
linalg::CsrMatrix random_spd(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 4.0 + rng.next_double());
    // A few symmetric off-diagonals with |value| < diag/degree.
    for (int k = 0; k < 2; ++k) {
      const std::size_t j = rng.index(n);
      if (j == i) continue;
      const double v = rng.uniform(-0.4, 0.4);
      builder.add(i, j, v);
      builder.add(j, i, v);
    }
  }
  return builder.build();
}

AppDescriptor generic_app(const linalg::CsrMatrix& a, const linalg::Vector& b,
                          std::uint32_t tasks) {
  GenericMultisplitTask::force_registration();
  GenericConfig gc;
  gc.a = a;
  gc.b = b;
  gc.inner_tolerance = 1e-10;
  AppDescriptor app;
  app.app_id = 5;
  app.program = GenericMultisplitTask::kProgramName;
  app.config = serial::encode(gc);
  app.task_count = tasks;
  app.checkpoint_every = 4;
  app.backup_peer_count = 2;
  app.convergence_threshold = 1e-8;
  app.stable_iterations_required = 3;
  return app;
}

TEST(GenericTask, ExportSetsMatchSparsityPattern) {
  // Tridiagonal: each task's rows only reference the adjacent components.
  const std::size_t n = 12;
  linalg::CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 2.0);
    if (i > 0) builder.add(i, i - 1, -1.0);
    if (i + 1 < n) builder.add(i, i + 1, -1.0);
  }
  const auto a = builder.build();
  linalg::Vector b(n, 1.0);
  const auto app = generic_app(a, b, 3);

  GenericMultisplitTask middle;
  ASSERT_TRUE(middle.init(app, 1));  // owns rows [4, 8)
  const auto& exports = middle.export_sets();
  // Task 0's rows reference column 4; task 2's rows reference column 7.
  ASSERT_EQ(exports.size(), 2u);
  EXPECT_EQ(exports.at(0), (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(exports.at(2), (std::vector<std::uint32_t>{7}));
}

TEST(GenericTask, ManualDrivingConvergesToDirectSolution) {
  const std::size_t n = 40;
  const auto a = random_spd(n, 11);
  Rng rng(12);
  linalg::Vector exact(n);
  for (auto& v : exact) v = rng.uniform(-1, 1);
  linalg::Vector b;
  a.multiply(exact, b);

  const auto app = generic_app(a, b, 4);
  std::vector<GenericMultisplitTask> tasks(4);
  for (std::uint32_t t = 0; t < 4; ++t) ASSERT_TRUE(tasks[t].init(app, t));

  for (int round = 0; round < 200; ++round) {
    for (auto& t : tasks) t.iterate();
    for (std::uint32_t t = 0; t < 4; ++t) {
      for (auto& out : tasks[t].outgoing()) {
        tasks[out.to_task].on_data(t, out.payload);
      }
    }
  }

  std::vector<serial::Bytes> payloads;
  for (auto& t : tasks) payloads.push_back(t.final_payload());
  const auto x = assemble_generic_solution(a, 4, payloads);
  EXPECT_LT(linalg::distance_inf(x, exact), 1e-6);
}

TEST(GenericTask, CheckpointRestoreRoundTrip) {
  const std::size_t n = 24;
  const auto a = random_spd(n, 21);
  linalg::Vector b(n, 1.0);
  const auto app = generic_app(a, b, 3);

  GenericMultisplitTask task;
  ASSERT_TRUE(task.init(app, 1));
  task.iterate();
  const auto snapshot = task.checkpoint();

  GenericMultisplitTask replica;
  ASSERT_TRUE(replica.init(app, 1));
  ASSERT_TRUE(replica.restore(snapshot));
  EXPECT_EQ(replica.final_payload(), task.final_payload());
  EXPECT_DOUBLE_EQ(replica.local_error(), task.local_error());
}

/// `state`, a GenericMultisplitTask checkpoint, with vector `field`
/// (0 x_local, 1 owned_prev, 2 x_halo) resized by `delta`.
serial::Bytes reshaped_state(const serial::Bytes& state, std::size_t field,
                             int delta) {
  serial::Reader r(state);
  std::vector<linalg::Vector> vectors(3);
  for (auto& v : vectors) v = r.f64_vector<linalg::Vector>();
  const double local_error = r.f64();
  const std::uint64_t iterations = r.u64();
  const std::uint64_t informative = r.u64();
  EXPECT_TRUE(r.ok() && r.exhausted());
  vectors[field].resize(vectors[field].size() + delta, 0.5);
  serial::Writer w;
  for (const auto& v : vectors) w.f64_vector(v);
  w.f64(local_error);
  w.u64(iterations);
  w.u64(informative);
  return w.take();
}

TEST(GenericTask, RestoreRefusesMisshapedState) {
  // The state comes from a backup peer. One whose vectors do not have the
  // shapes init() set is refused and leaves the task as it was.
  const std::size_t n = 24;
  const auto a = random_spd(n, 21);
  linalg::Vector b(n, 1.0);
  const auto app = generic_app(a, b, 3);

  GenericMultisplitTask task;
  ASSERT_TRUE(task.init(app, 1));
  task.iterate();
  const serial::Bytes before = task.checkpoint();
  for (std::size_t field = 0; field < 3; ++field) {
    for (const int delta : {-1, +1}) {
      EXPECT_FALSE(task.restore(reshaped_state(before, field, delta)))
          << "field " << field << ", delta " << delta;
      EXPECT_EQ(task.checkpoint(), before);
    }
  }
  EXPECT_TRUE(task.restore(reshaped_state(before, 0, 0)));
  EXPECT_EQ(task.checkpoint(), before);
}

TEST(GenericTask, CheckpointBytesGolden) {
  // The checkpoint() encoding of a middle task, pinned by size and CRC-32,
  // taken after halos arrived and one starved iteration, so the iteration
  // and informative counters differ. x_halo is longer than x_local and
  // owned_prev, so reordering it or the scalars changes these bytes. The
  // CRC was re-pinned (size unchanged) when CG's reductions moved to the
  // 4-lane order.
  const std::size_t n = 24;
  const auto a = random_spd(n, 21);
  linalg::Vector b(n, 1.0);
  const auto app = generic_app(a, b, 3);
  std::vector<GenericMultisplitTask> tasks(3);
  for (std::uint32_t t = 0; t < 3; ++t) ASSERT_TRUE(tasks[t].init(app, t));
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (auto& t : tasks) t.iterate();
    for (std::uint32_t t = 0; t < 3; ++t) {
      for (auto& out : tasks[t].outgoing()) {
        tasks[out.to_task].on_data(t, out.payload);
      }
    }
  }
  tasks[1].iterate();  // fresh halos: a real solve
  tasks[1].iterate();  // nothing new: starved
  ASSERT_FALSE(tasks[1].error_is_informative());
  const serial::Bytes state = tasks[1].checkpoint();
  EXPECT_EQ(state.size(), 347u);
  EXPECT_EQ(serial::crc32(state), 0x5dac4602u);
}

TEST(GenericTask, EndToEndOnP2PNetworkWithFailure) {
  const std::size_t n = 36;
  const auto a = random_spd(n, 31);
  Rng rng(32);
  linalg::Vector exact(n);
  for (auto& v : exact) v = rng.uniform(-1, 1);
  linalg::Vector b;
  a.multiply(exact, b);

  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 6;
  config.app = generic_app(a, b, 4);
  // Stretch the run so the failure lands mid-computation.
  {
    serial::Reader r(config.app.config);
    auto gc = r.object<GenericConfig>();
    gc.work_scale = 20000.0;
    config.app.config = serial::encode(gc);
  }
  config.max_sim_time = 2000.0;
  config.disconnect_times = {1.0};
  config.reconnect = false;
  SimDeployment deployment(config);
  const auto report = deployment.run();

  ASSERT_TRUE(report.spawner.completed);
  const auto x =
      assemble_generic_solution(a, 4, report.spawner.final_payloads);
  EXPECT_LT(linalg::distance_inf(x, exact), 1e-5);
}

// Property sweep: random systems of random sizes/partitions all converge on
// the full P2P runtime.
class GenericTaskSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GenericTaskSweep, RandomSystemSolvedOnNetwork) {
  Rng rng(GetParam());
  const std::size_t n = 16 + rng.index(32);
  const auto tasks = static_cast<std::uint32_t>(2 + rng.index(4));
  const auto a = random_spd(n, GetParam() * 13 + 1);
  linalg::Vector exact(n);
  for (auto& v : exact) v = rng.uniform(-1, 1);
  linalg::Vector b;
  a.multiply(exact, b);

  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = tasks + 1;
  config.sim.seed = GetParam();
  config.app = generic_app(a, b, tasks);
  config.max_sim_time = 2000.0;
  SimDeployment deployment(config);
  const auto report = deployment.run();

  ASSERT_TRUE(report.spawner.completed) << "n=" << n << " tasks=" << tasks;
  const auto x =
      assemble_generic_solution(a, tasks, report.spawner.final_payloads);
  // The update-distance stopping rule bounds the error only up to the
  // contraction factor of the random system; 1e-3 is the guaranteed band.
  EXPECT_LT(linalg::distance_inf(x, exact), 1e-3)
      << "n=" << n << " tasks=" << tasks;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenericTaskSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace jacepp::core
