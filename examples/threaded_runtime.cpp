// Threaded-runtime demo: the same JaceP2P entities as the simulator examples,
// but each on its own OS thread with real clocks and real concurrency —
// jacepp's analogue of the paper's one-JVM-per-machine deployment, folded
// into one process. A daemon is crashed mid-run to show live failure
// detection and checkpoint recovery under wall-clock timing.
//
//   $ ./threaded_runtime [--n 24] [--tasks 4] [--crash]
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/deployment_rt.hpp"
#include "poisson/block_task.hpp"
#include "poisson/poisson.hpp"
#include "support/flags.hpp"

using namespace jacepp;

int main(int argc, char** argv) {
  // Line-buffered even into a pipe or file, so the log of a run killed by an
  // outer timeout still shows how far it got.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  FlagSet flags("threaded_runtime",
                "Run JaceP2P on real threads; optionally crash a daemon");
  auto n = flags.add_int("n", 32, "grid side");
  auto tasks = flags.add_int("tasks", 4, "computing peers");
  auto crash = flags.add_bool("crash", true, "kill a computing daemon mid-run");
  auto seed = flags.add_uint("seed", 11, "seed");
  flags.parse(argc, argv);

  poisson::force_registration();

  poisson::PoissonConfig pc;
  pc.n = static_cast<std::uint32_t>(*n);
  pc.inner_tolerance = 1e-11;

  core::RtDeploymentConfig config;
  config.super_peer_count = 2;
  config.daemon_count = static_cast<std::size_t>(*tasks) + 2;
  config.seed = *seed;
  config.app.app_id = 1;
  config.app.program = poisson::PoissonTask::kProgramName;
  config.app.config = poisson::encode_config(pc);
  config.app.task_count = static_cast<std::uint32_t>(*tasks);
  config.app.checkpoint_every = 3;
  config.app.backup_peer_count = 2;
  config.app.convergence_threshold = 1e-10;
  config.app.stable_iterations_required = 20;

  const auto wall_start = std::chrono::steady_clock::now();
  core::RtDeployment deployment(config);
  deployment.start();

  if (*crash) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    if (deployment.disconnect_random_computing_daemon()) {
      std::printf("[demo] crashed one computing daemon at ~60 ms\n");
    } else {
      std::printf("[demo] no daemon was computing yet at 60 ms (fast run)\n");
    }
  }

  const auto report = deployment.wait(60.0);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  if (!report.has_value()) {
    std::printf("threaded run did not complete within 60 s\n");
    return 1;
  }

  const auto x = poisson::assemble_solution(
      static_cast<std::size_t>(*n), config.app.task_count,
      report->final_payloads);
  std::printf("threaded runtime — Poisson %lldx%lld on %lld threads\n",
              static_cast<long long>(*n), static_cast<long long>(*n),
              static_cast<long long>(*tasks));
  std::printf("  wall time          : %.3f s\n", wall);
  std::printf("  failures detected  : %llu (replacements: %llu)\n",
              static_cast<unsigned long long>(report->failures_detected),
              static_cast<unsigned long long>(report->replacements));
  std::printf("  iterations (mean)  : %.1f\n", report->mean_iteration());
  std::printf("  messages           : %llu sent, %llu lost\n",
              static_cast<unsigned long long>(
                  deployment.runtime().stats().sent.load()),
              static_cast<unsigned long long>(
                  deployment.runtime().stats().lost.load()));
  std::printf("  solution residual  : %.3e\n",
              poisson::poisson_relative_residual(pc, x));
  return 0;
}
