// Ablation A2 — checkpoint frequency (paper §5.4: "it can be interesting to
// checkpoint tasks at each given number of iterations (and not at each
// iteration)"; §7 uses every 5 iterations).
//
// Sweep jaceSave frequency k under a fixed failure load and report the
// trade-off: frequent checkpoints cost messages/bytes but shrink the
// recomputation window after a restore.
#include <cstdio>

#include "bench_common.hpp"
#include "core/messages.hpp"
#include "support/flags.hpp"

using namespace jacepp;
using namespace jacepp::bench;

int main(int argc, char** argv) {
  FlagSet flags("bench_checkpoint_freq",
                "Execution time & overhead vs jaceSave frequency (A2)");
  auto n = flags.add_int("n", 96, "sim grid side");
  auto disconnections = flags.add_int("disconnections", 15, "failures injected");
  auto seed = flags.add_uint("seed", 42, "seed");
  flags.parse(argc, argv);

  print_header("A2 — checkpoint every k iterations (15 disconnections)",
               "     k   time_s   residual   restores  restarts0   backup_msgs  "
               "net_MB");

  for (const std::uint32_t k : {0u, 1u, 2u, 5u, 10u, 20u}) {
    ExperimentParams p;
    p.n = static_cast<std::size_t>(*n);
    p.seed = *seed;
    p.checkpoint_every = k;
    p.disconnections = static_cast<std::size_t>(*disconnections);
    p.disconnect_start = 2.0;
    p.disconnect_horizon = 40.0;
    const auto outcome = run_experiment(p);
    if (!outcome.completed) {
      std::printf("  %4u   DID NOT CONVERGE\n", k);
      continue;
    }
    const auto save_it = outcome.report.net.sent_by_type.find(
        core::msg::SaveBackup::kType);
    const std::uint64_t saves =
        save_it != outcome.report.net.sent_by_type.end() ? save_it->second : 0;
    std::printf("  %4u  %7.1f   %.2e  %8llu  %9llu   %11llu  %7.1f\n", k,
                outcome.execution_time, outcome.residual,
                static_cast<unsigned long long>(
                    outcome.report.restores_from_backup),
                static_cast<unsigned long long>(
                    outcome.report.restarts_from_zero),
                static_cast<unsigned long long>(saves),
                static_cast<double>(outcome.report.net.bytes_sent) / 1e6);
    std::fflush(stdout);
  }

  std::printf(
      "\npaper check: k=0 (no jaceSave) forces restarts from iteration 0; "
      "small k buys cheap recovery at higher backup traffic; the paper's "
      "k=5 sits at the flat part of the curve.\n");
  return 0;
}
