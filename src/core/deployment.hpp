// SimDeployment: builds a complete JaceP2P network inside a SimWorld — the
// super-peer overlay, the heterogeneous daemon fleet, the spawner — injects
// the disconnection/reconnection schedule of the paper's §7 experiments, runs
// the application to global convergence, and returns a consolidated report.
//
// This is the harness every sim-based experiment (bench/), integration test
// and example goes through.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/app.hpp"
#include "core/config.hpp"
#include "core/spawner.hpp"
#include "sim/churn.hpp"
#include "sim/machine.hpp"
#include "sim/world.hpp"

namespace jacepp::core {

struct SimDeploymentConfig {
  std::size_t super_peer_count = 3;   ///< paper §7: three super-peers
  std::size_t daemon_count = 100;     ///< paper §7: about 100 daemons
  AppDescriptor app;                  ///< what the spawner launches
  TimingConfig timing;
  CommConfig comm;                    ///< staleness-aware comm path knobs
  PerfConfig perf;                    ///< inert (core/config.hpp)
  /// Decentralized control plane switches (§13); defaults reproduce the
  /// centralized plane bit-for-bit.
  ControlPlaneConfig cp;
  /// Reputation / redundant-execution switches (`rep.*`, DESIGN.md §14).
  /// Defaults keep every path off — bit-identical to a rep-less build.
  ReputationConfig rep;
  /// Deterministic fault-injection script (`churn.*`, DESIGN.md §14):
  /// flash-crowd joins, correlated failure bursts, slow peers, lying workers.
  /// The all-zero default installs nothing.
  sim::ChurnScriptConfig churn;
  /// Simulator knobs, including the sharded-scheduler scale controls
  /// `sim.shards` / `sim.worker_threads` (DESIGN.md §12). The default
  /// (shards = 1) is the single-queue scheduler.
  sim::SimConfig sim;
  sim::FleetModel fleet;

  /// Disconnection schedule (absolute sim times). Victims are drawn at random
  /// among currently-computing daemons; each reconnects `reconnect_delay`
  /// seconds later as a fresh daemon (paper: "reconnected about 20 seconds
  /// later").
  std::vector<double> disconnect_times;
  double reconnect_delay = 20.0;
  bool reconnect = true;
  /// Pick victims among computing daemons only (the paper disconnects peers
  /// running the application); false adds idle daemons to the victim pool.
  bool disconnect_only_computing = true;

  /// Hard stop: abandon the run if convergence has not happened by then.
  /// (Heartbeat timers re-arm forever, so a stuck run otherwise never ends.)
  double max_sim_time = 10000.0;
};

/// Uniformly spread `count` disconnect times over [start, start + horizon].
std::vector<double> uniform_disconnect_schedule(std::size_t count, double start,
                                                double horizon,
                                                std::uint64_t seed);

struct SimExperimentReport {
  SpawnerReport spawner;
  sim::NetStats net;
  net::CommStatsSnapshot comm;  ///< link-layer counters (zero when inactive)
  std::size_t shards = 1;       ///< scheduler partitions the world ran with
  double sim_end_time = 0.0;
  std::size_t disconnections_executed = 0;
  std::size_t reconnections_executed = 0;
  /// Aggregated over every daemon incarnation that ever lived in the run.
  std::uint64_t restores_from_backup = 0;
  std::uint64_t restarts_from_zero = 0;
  std::uint64_t total_iterations_completed = 0;  ///< sum of FinalState iters

  // Churn-script outcomes (DESIGN.md §14; all zero without a script).
  std::uint64_t flash_joins = 0;
  std::uint64_t burst_disconnections = 0;
  std::uint64_t burst_revivals = 0;
  std::uint64_t slowdowns_applied = 0;
  /// Ground truth for voting tests: node ids built as lying workers, and the
  /// results they actually corrupted (liars revived after a crash come back
  /// honest, like any fresh incarnation).
  std::vector<net::NodeId> liar_nodes;
  std::uint64_t result_corruptions = 0;
};

class SimDeployment : private sim::ChurnDriver {
 public:
  explicit SimDeployment(SimDeploymentConfig config);
  ~SimDeployment();

  /// Build, run to completion (or max_sim_time), and report.
  SimExperimentReport run();

  /// Access the world (tests drive finer-grained scenarios through it).
  sim::SimWorld& world() { return *world_; }
  Spawner* spawner() { return spawner_; }
  /// Node ids of all daemon machines (original fleet; revived incarnations
  /// keep their node id).
  [[nodiscard]] const std::vector<net::NodeId>& daemon_nodes() const {
    return daemon_nodes_;
  }
  [[nodiscard]] const std::vector<net::Stub>& super_peer_addresses() const {
    return super_peer_addresses_;
  }

  /// Builds everything without running (tests call world().run_until()).
  void build();

 private:
  void inject_disconnect();
  void accumulate_counters_from(net::NodeId node);
  /// Up to `count` distinct daemons that are up now, drawn from `rng`.
  [[nodiscard]] std::vector<net::NodeId> sample_live_daemons(std::size_t count,
                                                             Rng& rng) const;
  [[nodiscard]] std::unique_ptr<net::Actor> make_daemon(bool liar,
                                                        std::uint64_t tag);

  // sim::ChurnDriver hooks (DESIGN.md §14): run inside schedule_global
  // events, drawing only from the per-op Rng.
  void flash_join(std::size_t count, Rng& rng) override;
  void failure_burst(std::size_t count, double revive_delay,
                     Rng& rng) override;
  void slow_peers(std::size_t count, double factor, Rng& rng) override;

  SimDeploymentConfig config_;
  std::unique_ptr<sim::SimWorld> world_;
  std::vector<net::Stub> super_peer_addresses_;
  std::vector<net::NodeId> super_peer_nodes_;
  std::vector<net::NodeId> daemon_nodes_;
  net::NodeId spawner_node_ = net::kInvalidNode;
  Spawner* spawner_ = nullptr;
  bool built_ = false;
  bool completed_ = false;
  std::optional<sim::ChurnScript> churn_script_;
  std::vector<net::NodeId> liar_nodes_;

  SimExperimentReport report_;
};

}  // namespace jacepp::core
