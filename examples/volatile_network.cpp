// Volatile-network demo: the paper's §7 scenario in miniature, upgraded to
// the decentralized control plane (DESIGN.md §13) under a deterministic churn
// script (DESIGN.md §14). Four linked super-peers shard the daemon Register
// and hold replicas of the Application Register; the churn script injects a
// flash crowd of late joiners, correlated failure bursts (revived ~20 s
// later) and a batch of suddenly-slow peers while the solver runs.
// Reputation-aware placement steers replacements toward peers that kept
// their heartbeats up. The run narrates every event and asserts at exit that
// the solver actually converged to the right answer.
//
//   $ ./volatile_network [--bursts 3] [--n 64] [--tasks 8]
#include <cstdio>

#include "core/daemon.hpp"
#include "core/deployment.hpp"
#include "poisson/block_task.hpp"
#include "poisson/poisson.hpp"
#include "support/flags.hpp"
#include "support/logging.hpp"

using namespace jacepp;

int main(int argc, char** argv) {
  FlagSet flags("volatile_network",
                "Poisson on the decentralized control plane under churn");
  auto n = flags.add_int("n", 64, "grid side");
  auto tasks = flags.add_int("tasks", 8, "computing peers");
  auto bursts = flags.add_int("bursts", 3, "correlated failure bursts");
  auto burst_size = flags.add_int("burst-size", 2, "daemons per burst");
  auto seed = flags.add_uint("seed", 7, "simulation seed");
  flags.parse(argc, argv);

  poisson::force_registration();
  set_log_level(LogLevel::Info);  // narrate spawner/daemon decisions

  poisson::PoissonConfig pc;
  pc.n = static_cast<std::uint32_t>(*n);
  pc.inner_tolerance = 1e-9;
  pc.work_scale = 400.0;  // paper-scale per-iteration cost → churn lands mid-run

  core::SimDeploymentConfig config;
  config.daemon_count = static_cast<std::size_t>(*tasks) + 6;
  config.sim.seed = *seed;
  config.app.app_id = 1;
  config.app.program = poisson::PoissonTask::kProgramName;
  config.app.config = poisson::encode_config(pc);
  config.app.task_count = static_cast<std::uint32_t>(*tasks);
  config.app.checkpoint_every = 5;
  config.app.backup_peer_count = 4;
  config.app.convergence_threshold = 1e-6;
  config.app.stable_iterations_required = 3;
  config.max_sim_time = 4000.0;

  // Decentralized control plane (§13): four linked super-peers, sharded
  // Register, replicated Application Register.
  config.super_peer_count = 4;
  config.cp.shard_register = true;
  config.cp.replicate_register = true;

  // Deterministic churn script (§14): one flash crowd of late joiners,
  // correlated failure bursts revived ~20 s later, and a slowdown wave.
  config.churn.seed = *seed;
  config.churn.start = 5.0;
  config.churn.horizon = 60.0;
  config.churn.flash_crowds = 1;
  config.churn.flash_size = 4;
  config.churn.failure_bursts = static_cast<std::size_t>(*bursts);
  config.churn.burst_size = static_cast<std::size_t>(*burst_size);
  config.churn.revive_delay = 20.0;
  config.churn.slowdowns = 1;
  config.churn.slowdown_size = 2;
  config.churn.slow_factor = 6.0;

  // Reputation-aware placement (§14): replacements prefer peers that kept
  // their heartbeats up; checkpoints flow toward the best-scored hosts.
  config.rep.enabled = true;
  config.rep.backup_placement = true;

  core::SimDeployment deployment(config);
  const auto report = deployment.run();

  std::printf("\n--- volatile network summary ---\n");
  std::printf("  completed           : %s\n",
              report.spawner.completed ? "yes" : "NO");
  std::printf("  flash joins         : %llu\n",
              static_cast<unsigned long long>(report.flash_joins));
  std::printf("  burst disconnects   : %llu (revivals: %llu)\n",
              static_cast<unsigned long long>(report.burst_disconnections),
              static_cast<unsigned long long>(report.burst_revivals));
  std::printf("  slowdowns applied   : %llu\n",
              static_cast<unsigned long long>(report.slowdowns_applied));
  std::printf("  failures detected   : %llu, replacements: %llu\n",
              static_cast<unsigned long long>(report.spawner.failures_detected),
              static_cast<unsigned long long>(report.spawner.replacements));
  std::printf("  restores from backup: %llu, restarts from zero: %llu\n",
              static_cast<unsigned long long>(report.restores_from_backup),
              static_cast<unsigned long long>(report.restarts_from_zero));
  std::printf("  execution time      : %.1f sim s\n",
              report.spawner.execution_time());

  if (!report.spawner.completed) {
    std::printf("FAIL: solver did not converge under churn\n");
    return 1;
  }
  const auto x = poisson::assemble_solution(
      static_cast<std::size_t>(*n), config.app.task_count,
      report.spawner.final_payloads);
  const double residual = poisson::poisson_relative_residual(pc, x);
  std::printf("  solution residual   : %.3e\n", residual);
  if (!(residual < 1e-4)) {
    std::printf("FAIL: residual %.3e exceeds 1e-4 — churn corrupted the solve\n",
                residual);
    return 1;
  }
  return 0;
}
