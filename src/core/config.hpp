// The settable parameters of a simulated deployment (SimDeploymentConfig):
// the timings shared by all JaceP2P entities, the control-plane and
// reputation switches, and the simulator's comm path. Defaults are tuned for
// the simulator (sub-second heartbeats keep failure detection fast relative
// to iteration times). The threaded runtime sets none of them: RtDeployment
// runs the default control plane with timings shrunk for wall-clock runs,
// and its sends bypass the link layer.
//
// A value that every deployment runs at one setting is not a field here but
// a named constant next to its one reader: Daemon::kBackupRetention, the
// reservation TTL, assign-ack window, replica count and audit timings in
// core/spawner.cpp, ReputationStore's EWMA constants, the link queue
// budgets net::Link::kMaxQueueBytes / kMaxQueueMessages, and the fleet's
// network constants sim::FleetModel::kSlowBandwidthBps and friends. The
// simulator's scale settings (`shards` / `worker_threads`, DESIGN.md §12)
// live in sim::SimConfig and the churn script's in sim::ChurnScriptConfig;
// both reach experiments through SimDeploymentConfig.
#pragma once

#include <cstddef>
#include <cstdint>

namespace jacepp::core {

struct TimingConfig {
  double heartbeat_period = 0.5;     ///< daemon liveness signal period (§5.3)
  double daemon_timeout = 2.5;       ///< SP/Spawner declare a daemon dead after
                                     ///< this long without a heartbeat
  double super_peer_timeout = 2.0;   ///< daemon declares its SP dead after this
                                     ///< long without a heartbeat ack
  double sweep_period = 0.5;         ///< monitor scan period
  double bootstrap_retry = 0.5;      ///< retry delay when a bootstrap SP is
                                     ///< unreachable (§5.1)
  double reserve_retry = 1.0;        ///< spawner re-requests unfilled
                                     ///< reservations after this long (§5.2)
  double reserved_timeout = 6.0;     ///< a Reserved daemon that never receives
                                     ///< a task re-registers after this long
  double backup_query_timeout = 1.0; ///< replacement daemon waits this long
                                     ///< for BackupInfo replies (§5.4)
  double backup_fetch_timeout = 2.0; ///< ... and this long for the BackupData
  double final_state_timeout = 3.0;  ///< spawner waits this long for
                                     ///< FinalState after broadcasting halt
};

/// Control-plane switches (DESIGN.md §13): how daemons map onto the
/// super-peers, and whether the Application Register is replicated off the
/// spawner. Global convergence is always the spawner's AND-of-states board
/// (§5.5). How many super-peers there are is the deployment's
/// `super_peer_count`. Defaults reproduce the paper's centralized control
/// plane bit-for-bit (golden-pinned in tests/core/test_control_plane.cpp).
struct ControlPlaneConfig {
  /// Shard the daemon Register by consistent hash: a daemon registers at its
  /// home super-peer `mix64(node_id) % N` (stable across crash/revive
  /// incarnations) and walks the ring deterministically when the home SP is
  /// down; reservation requests are spread over the overlay by request id.
  /// Off (default): the paper's random-bootstrap choice.
  bool shard_register = false;
  /// Replicate the Application Register to the first super-peers on every
  /// version change, so a standby spawner can adopt a running application
  /// after the primary dies (Spawner standby mode).
  bool replicate_register = false;
};

/// Reputation and redundant-execution switches (DESIGN.md §14). Defaults keep
/// every path off: no scores are kept, reservation grants stay FIFO, backup
/// placement stays round-robin and no verification round runs — bit-identical
/// to the pre-§14 behaviour (golden-pinned in tests/core/test_churn.cpp).
struct ReputationConfig {
  /// Keep EWMA availability/speed scores per daemon (super-peer side, fed by
  /// heartbeats, sweeps and spawner reports) and grant reservations in
  /// descending-score order instead of FIFO. The spawner mirrors the scores
  /// it observes and prefers high-scoring pooled daemons for launch slots and
  /// replacements.
  bool enabled = false;
  /// Reputation-ranked backup-peer placement (on top of the whole-state
  /// saves of DESIGN.md §7): the spawner broadcasts a ranking of tasks by
  /// their daemon's score and daemons save checkpoints to the top-ranked
  /// peers instead of the round-robin neighbours. Requires `enabled`.
  bool backup_placement = false;
  /// Redundant-execution verification round (Davtyan et al.): before halting,
  /// the spawner challenges k daemons per task with a deterministic re-run,
  /// majority-votes the result digests and demotes outvoted peers as liars.
  /// 0 or 1 disables voting.
  std::uint32_t redundancy = 0;
};

/// Knobs for the simulator's staleness-aware comm path (net/link.hpp;
/// DESIGN.md §8). Defaults keep the link layer dormant — `flush_window == 0`
/// (and `serialize_links == false`) means every send bypasses it and behaves
/// exactly as before this subsystem existed.
struct CommConfig {
  bool coalesce = true;          ///< latest-wins replacement of queued
                                 ///< dependency data (only with a window)
  double flush_window = 0.0;     ///< seconds a link accumulates between
                                 ///< flushes; 0 disables the link layer
  bool serialize_links = false;  ///< one in-flight frame per directed link
                                 ///< (models a busy NIC, makes backlogs —
                                 ///< and coalescing — visible)
};

/// Inert fields that the benchmark drivers still assign; no behaviour depends
/// on them. Kernels are serial loops, message buffers are always pooled, and
/// a task's data leaves after its iteration (paper §4.2). The Daemon
/// constructor aborts on any value but the ones below (ROADMAP item 2 deletes
/// the struct).
struct PerfConfig {
  bool early_send = false;   ///< must be false
  std::size_t grain = 0;     ///< must be 0 or linalg::kVectorOpGrain
  bool pool_buffers = true;  ///< must be true
  bool simd = false;         ///< must be false
  bool sell = false;         ///< must be false
};

}  // namespace jacepp::core
