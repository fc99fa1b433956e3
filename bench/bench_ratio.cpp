// Eq. (4) of the paper: ratio = computing time per iteration /
// communication time per iteration. The paper uses this ratio to explain why
// small problems iterate "uselessly" more often: when the ratio is small a
// processor frequently starts an iteration before any dependency update has
// arrived.
//
// This bench computes both sides of the ratio from the actual models the
// simulator uses — per-iteration flops measured by running the real task, and
// per-message delay from the network model — and reports the measured
// fraction of informative iterations from a full run.
#include <cstdio>

#include "bench_common.hpp"
#include "core/daemon.hpp"
#include "poisson/block_task.hpp"
#include "support/assert.hpp"
#include "support/flags.hpp"

using namespace jacepp;
using namespace jacepp::bench;

namespace {

/// Per-iteration compute cost (flops) of an interior task, measured by
/// driving two coupled tasks a few synchronous rounds and averaging the
/// steady-state solve cost.
double measured_flops_per_iteration(std::size_t n, std::uint32_t tasks,
                                    double work_scale) {
  poisson::PoissonConfig pc;
  pc.n = static_cast<std::uint32_t>(n);
  pc.inner_tolerance = 1e-6;
  pc.work_scale = work_scale;
  core::AppDescriptor app;
  app.task_count = tasks;
  app.config = poisson::encode_config(pc);

  const core::TaskId mid = tasks / 2;
  std::vector<poisson::PoissonTask> ring(3);
  const core::TaskId ids[3] = {mid - 1, mid, mid + 1};
  for (int i = 0; i < 3; ++i) {
    JACEPP_CHECK(ring[i].init(app, ids[i]), "bench_ratio: config refused");
  }

  double flops = 0.0;
  int counted = 0;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 3; ++i) {
      const double f = ring[i].iterate();
      if (round >= 2 && i == 1) {
        flops += f;
        ++counted;
      }
    }
    for (int i = 0; i < 3; ++i) {
      for (auto& out : ring[i].outgoing()) {
        for (int j = 0; j < 3; ++j) {
          if (ids[j] == out.to_task) ring[j].on_data(ids[i], out.payload);
        }
      }
    }
  }
  return counted > 0 ? flops / counted : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("bench_ratio",
                "Eq. (4): compute/communication ratio per iteration vs n");
  auto tasks = flags.add_int("tasks", 80, "computing peers");
  auto seed = flags.add_uint("seed", 42, "seed");
  flags.parse(argc, argv);

  poisson::force_registration();

  print_header("Eq. (4) — compute vs communication time per iteration",
               "  n(sim)  n(paper)  t_comp_s   t_comm_s    ratio    "
               "informative%  iters(mean)");

  const sim::MachineSpec median;  // 200 Mflop/s, 100 Mb/s, defaults
  for (const std::size_t n : {96ul, 144ul, 192ul, 240ul}) {
    ExperimentParams p;
    p.n = n;
    p.tasks = static_cast<std::uint32_t>(*tasks);
    p.seed = *seed;

    const double flops = measured_flops_per_iteration(n, p.tasks, p.work_scale);
    const double t_comp = flops / median.flops_per_sec;
    // One boundary line each way: n doubles + envelope.
    const double message_bytes = static_cast<double>(n) * 8.0 + 52.0;
    const double t_comm = 2.0 * (median.latency_s + median.message_overhead_s) +
                          message_bytes * 8.0 / median.bandwidth_bps;
    const double ratio = t_comp / t_comm;

    // Fraction of informative iterations from a real run.
    const auto outcome = run_experiment(p);
    double informative_pct = -1.0;
    double iters = -1.0;
    if (outcome.completed) {
      iters = outcome.report.spawner.mean_iteration();
      const double informative =
          outcome.report.spawner.mean_informative_iteration();
      if (iters > 0.0) informative_pct = 100.0 * informative / iters;
    }
    std::printf("  %6zu  %8zu  %8.4f   %8.4f  %7.1f      %8.1f%%  %11.1f\n", n,
                paper_n(n), t_comp, t_comm, ratio, informative_pct, iters);
    std::fflush(stdout);
  }

  std::printf(
      "\npaper check: the ratio grows with n; small-n runs sit in the "
      "small-ratio regime where useless iterations dominate (§7).\n");
  return 0;
}
