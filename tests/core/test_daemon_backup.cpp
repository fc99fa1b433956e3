// Daemon checkpoint/restore protocol scenarios (§5.4): round-robin backup
// placement, replacement recovery from the highest-iteration backup, restart
// from zero when every backup-peer is gone.
#include <gtest/gtest.h>

#include "core/deployment.hpp"
#include "core/daemon.hpp"
#include "poisson/block_task.hpp"
#include "poisson/poisson.hpp"

namespace jacepp::core {
namespace {

SimDeploymentConfig poisson_config(std::uint32_t n, std::uint32_t tasks,
                                   std::uint64_t seed, double work_scale) {
  poisson::force_registration();
  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = tasks + 3;
  config.sim.seed = seed;
  config.max_sim_time = 2000.0;

  poisson::PoissonConfig pc;
  pc.n = n;
  pc.inner_tolerance = 1e-9;
  pc.work_scale = work_scale;

  config.app.app_id = 2;
  config.app.program = poisson::PoissonTask::kProgramName;
  config.app.config = poisson::encode_config(pc);
  config.app.task_count = tasks;
  config.app.checkpoint_every = 2;
  config.app.backup_peer_count = 2;
  config.app.convergence_threshold = 1e-6;
  config.app.stable_iterations_required = 3;
  return config;
}

/// Count live daemons holding at least one backup for the app.
std::size_t backup_holder_count(SimDeployment& deployment) {
  std::size_t holders = 0;
  for (const auto node : deployment.daemon_nodes()) {
    auto* daemon = dynamic_cast<Daemon*>(deployment.world().actor(node));
    if (daemon != nullptr && daemon->backups().size() > 0) ++holders;
  }
  return holders;
}

TEST(DaemonBackup, CheckpointsSpreadAcrossBackupPeers) {
  auto config = poisson_config(24, 4, 31, 100.0);
  SimDeployment deployment(config);
  deployment.build();
  deployment.world().run_until(3.0);  // mid-run, before convergence
  // With backup_peer_count=2 and checkpoint_every=2, after a few seconds
  // every computing daemon must hold backups for its neighbours.
  EXPECT_GE(backup_holder_count(deployment), 3u);

  // Round-robin: a given task's backups appear on BOTH its neighbours.
  std::size_t tasks_with_two_holders = 0;
  for (std::uint32_t task = 0; task < 4; ++task) {
    std::size_t holders = 0;
    for (const auto node : deployment.daemon_nodes()) {
      auto* daemon = dynamic_cast<Daemon*>(deployment.world().actor(node));
      if (daemon != nullptr && daemon->backups().find(2, task) != nullptr) {
        ++holders;
      }
    }
    if (holders >= 2) ++tasks_with_two_holders;
  }
  EXPECT_GE(tasks_with_two_holders, 3u);
}

TEST(DaemonBackup, ReplacementPicksHighestIterationBackup) {
  auto config = poisson_config(24, 4, 33, 100.0);
  config.disconnect_times = {2.0};
  config.reconnect = false;
  SimDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_EQ(report.spawner.replacements, 1u);
  EXPECT_EQ(report.restores_from_backup, 1u);
  EXPECT_EQ(report.restarts_from_zero, 0u);
}

TEST(DaemonBackup, RestartsFromZeroWithoutCheckpointing) {
  // checkpoint_every = 0 disables jaceSave entirely: a replacement finds no
  // backups and must restart from iteration 0 (§5.4 last paragraph).
  auto config = poisson_config(24, 4, 35, 100.0);
  config.app.checkpoint_every = 0;
  config.disconnect_times = {2.0};
  config.reconnect = false;
  SimDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_EQ(report.spawner.replacements, 1u);
  EXPECT_EQ(report.restores_from_backup, 0u);
  EXPECT_EQ(report.restarts_from_zero, 1u);
}

TEST(DaemonBackup, SolutionSurvivesRestore) {
  auto config = poisson_config(24, 4, 37, 100.0);
  config.disconnect_times = {1.5, 3.0};
  SimDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  poisson::PoissonConfig pc;
  pc.n = 24;
  const auto x =
      poisson::assemble_solution(24, 4, report.spawner.final_payloads);
  EXPECT_LT(poisson::poisson_relative_residual(pc, x), 1e-3);
}

TEST(DaemonBackup, BackupsClearedAfterHalt) {
  auto config = poisson_config(16, 3, 39, 1.0);
  SimDeployment deployment(config);
  deployment.build();
  deployment.world().run();
  // Backups are retained for kBackupRetention seconds after the halt (for
  // post-halt result recovery); past that they must be gone.
  deployment.world().clear_stop();
  deployment.world().run_until(deployment.world().now() +
                               Daemon::kBackupRetention + 1.0);
  for (const auto node : deployment.daemon_nodes()) {
    auto* daemon = dynamic_cast<Daemon*>(deployment.world().actor(node));
    if (daemon != nullptr) {
      EXPECT_EQ(daemon->backups().size(), 0u);
    }
  }
}

TEST(DaemonBackup, RestoresAcrossThreeFailuresAreExact) {
  // Three failures, each replacement restoring from a neighbour's latest
  // save (or from zero): the run must still converge to the true solution.
  auto config = poisson_config(24, 4, 43, 100.0);
  config.disconnect_times = {1.5, 2.5, 4.0};
  SimDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_GE(report.restores_from_backup + report.restarts_from_zero,
            report.spawner.replacements);
  poisson::PoissonConfig pc;
  pc.n = 24;
  const auto x =
      poisson::assemble_solution(24, 4, report.spawner.final_payloads);
  EXPECT_LT(poisson::poisson_relative_residual(pc, x), 1e-3);
}

}  // namespace
}  // namespace jacepp::core
