// The comm-path ablation's scenarios (bench_comm.cpp). The flaky-consumer
// regression test (tests/core/test_comm_flaky.cpp) runs the smoke size of
// the same scenario, so both read it from here.
#pragma once

#include <cstdint>

#include "bench_common.hpp"
#include "core/config.hpp"

namespace jacepp::bench {

/// Grid, fleet and detection settings shared by both comm scenarios, at the
/// CI size (`smoke`) or the recorded one. Each scenario then sets its own
/// producer rate (`work_scale`).
inline ExperimentParams comm_params(bool smoke, std::uint64_t seed) {
  ExperimentParams p;
  p.seed = seed;
  if (smoke) {
    p.n = 48;
    p.tasks = 6;
    p.daemons = 10;
    p.super_peers = 2;
    // Tight detection even in smoke: with coalescing OFF the stale backlog
    // yields small per-flush updates that would trip a loose update-distance
    // criterion long before the residual settles, breaking the parity check.
    p.convergence_threshold = 1e-9;
    p.stable_required = 5;
    p.inner_tolerance = 1e-10;
    p.max_sim_time = 2000.0;
  } else {
    // Mid-size: the largest configuration where BOTH ablation arms still
    // converge. Past this (n = 96, 16 tasks) the non-coalesced arm saturates
    // the serialized wire — its backlog and staleness grow without bound, on
    // top of burst drains stalling daemons past the failure-detection
    // timeouts — and it never reaches the threshold. That is the qualitative
    // point of the ablation, but no longer a two-sided measurement.
    p.n = 64;
    p.tasks = 8;
    p.daemons = 16;
    p.super_peers = 3;
    // Tight thresholds: both ablation arms iterate to solver-precision
    // convergence so the parity comparison is meaningful.
    p.convergence_threshold = 1e-9;
    p.stable_required = 5;
    p.inner_tolerance = 1e-10;
    p.max_sim_time = 4000.0;
  }
  // Checkpoint cadence scaled to the fast iteration rates both scenarios run
  // (the paper's every-5 assumes ~0.5 s iterations; at 20-40 ms it would
  // checkpoint every ~0.15 s and backup traffic would swamp the wire-byte
  // metric).
  p.checkpoint_every = 50;
  return p;
}

/// Flaky consumer: daemons crash mid-run and reconnect ~20 s later as fresh
/// peers; queued frames to and from the victims die with them, and
/// replacements rebuild from backups while traffic keeps flowing. Every
/// disconnection must be detected once, and the run must converge.
inline ExperimentParams flaky_consumer_params(bool smoke, std::uint64_t seed) {
  ExperimentParams pf = comm_params(smoke, seed);
  pf.disconnections = smoke ? 2 : 4;
  pf.disconnect_start = 20.0;
  pf.disconnect_horizon = smoke ? 60.0 : 120.0;
  pf.reconnect_delay = 20.0;
  // This scenario measures fault-tolerance traffic, not parity (the parity
  // gate runs on the slow-consumer pair), so it can afford the paper's
  // looser update-distance detection.
  pf.convergence_threshold = 1e-6;
  pf.stable_required = 3;
  pf.max_sim_time = smoke ? 600.0 : 1500.0;
  // Milder producer rate than the slow-consumer regime.
  pf.work_scale = paper_scale_factor() * paper_scale_factor() / 4.0;
  return pf;
}

/// The flaky consumer's comm path: a flush window and no wire
/// serialization. With both hostile axes at once the non-coalesced arm
/// wedges for good — its post-recovery data backlog outgrows the serialized
/// wire and the recovery RPCs starve behind it — so the churn axis is
/// isolated here and both arms can complete.
inline core::CommConfig flaky_consumer_comm(bool coalesce,
                                            double flush_window) {
  core::CommConfig comm;
  comm.coalesce = coalesce;
  comm.flush_window = flush_window;
  comm.serialize_links = false;
  return comm;
}

}  // namespace jacepp::bench
