// Threaded-runtime demo: the same JaceP2P entities as the simulator examples,
// but each on its own OS thread with real clocks and real concurrency —
// jacepp's analogue of the paper's one-JVM-per-machine deployment, folded
// into one process. With --crash (the default) the demo crashes the first
// daemon it sees computing, polling every millisecond for up to one second,
// and prints when; the spawner then detects the failure by heartbeat timeout
// under wall-clock timing, a replacement daemon takes the task over (from
// its latest checkpoint when one was saved, else from iteration 0), and the
// report counts one failure and one replacement.
//
//   $ ./threaded_runtime [--n 32] [--tasks 4] [--crash]
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
    const auto give_up = wall_start + std::chrono::seconds(1);
    bool crashed = deployment.disconnect_random_computing_daemon();
    while (!crashed && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      crashed = deployment.disconnect_random_computing_daemon();
    }
    const double at_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
    if (crashed) {
      std::printf("[demo] crashed one computing daemon at %.0f ms\n", at_ms);
    } else {
      std::printf("[demo] no daemon was seen computing within 1 s; nothing "
                  "crashed\n");
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
