// The benchmark's three deployment workloads. Each repetition builds a fresh
// simulated deployment from a seed, runs it to its end, checks its outputs
// and returns host timings plus the simulated outputs the checks and the
// traced/untraced comparison read.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RepResult {
  std::uint64_t seed = 0;
  bool ok = true;
  std::string failure;  ///< first failed output check, empty when ok

  double setup_s = 0.0;  ///< host time to build the world and its nodes
  double wall_s = 0.0;   ///< host time from simulation start to final report
  /// wall_s split by equal steps of simulated time (one entry when the
  /// workload is not stepped). Repetitions of one seed do the same work in
  /// each step, so their step times can be compared one by one.
  std::vector<double> step_wall_s;

  // Simulated outputs (deterministic per seed).
  double sim_exec_s = 0.0;  ///< convergence time, or last reservation (cp)
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t cross_shard_frames = 0;
  double shard_occupancy = 1.0;  ///< max/mean of per-shard event counts
  std::vector<std::uint64_t> task_iterations;
  std::uint64_t outer_iterations = 0;
  std::uint64_t informative_iterations = 0;
  double residual = 0.0;
  std::uint64_t restores_from_backup = 0;
  std::uint64_t restarts_from_zero = 0;
  std::uint64_t disconnections = 0;

  // cp-100k reservation probe.
  std::size_t reservations_issued = 0;
  std::size_t reservations_completed = 0;
  double reserve_p50_ms = 0.0;
  double reserve_p95_ms = 0.0;
  double max_sp_share = 0.0;

  // Network and link-layer counters.
  std::uint64_t net_sent = 0;
  std::uint64_t net_delivered = 0;
  std::uint64_t net_bytes_sent = 0;
  std::uint64_t net_lost = 0;
  std::uint64_t link_coalesced = 0;
  std::uint64_t link_dropped_data = 0;
  std::uint64_t link_batches = 0;
  std::uint64_t link_wire_frames = 0;
  std::uint64_t link_wire_bytes = 0;

  /// FNV-1a over every simulated output above and the final solution bytes:
  /// equal digests mean bit-identical simulated results.
  std::uint64_t digest = 0;
};

/// Names accepted by run_workload / setup_only.
const std::vector<std::string>& workload_names();

/// One full repetition: set-up, run, output checks.
RepResult run_workload(const std::string& name, std::uint64_t seed);

/// Set-up alone (build the world, then tear it down); returns the set-up
/// host time in seconds.
double setup_only(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
