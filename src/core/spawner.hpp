// Spawner entity (paper §4.2, §5.2–5.5): the stable peer run by the
// application programmer. It reserves daemons through the super-peer overlay,
// launches the application, maintains and broadcasts the Application
// Register, detects computing-daemon failures by heartbeat timeout, replaces
// them, performs centralized global convergence detection, and halts the
// application.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <functional>
#include <map>
#include <vector>

#include "asynciter/convergence.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/periodic.hpp"
#include "core/reputation.hpp"
#include "net/env.hpp"
#include "rmi/rmi.hpp"

namespace jacepp::core {

/// What the Spawner knows once the application has terminated.
struct SpawnerReport {
  bool completed = false;
  double launch_time = 0.0;        ///< when all tasks were first assigned
  double convergence_time = 0.0;   ///< when global convergence was detected
  double finish_time = 0.0;        ///< when the report was emitted
  std::uint64_t failures_detected = 0;
  std::uint64_t replacements = 0;
  /// Final iteration count per task (from FinalState; 0 if never received).
  std::vector<std::uint64_t> final_iterations;
  /// Iterations that consumed fresh dependency data, per task.
  std::vector<std::uint64_t> final_informative_iterations;
  /// Final payload per task (empty if never received).
  std::vector<serial::Bytes> final_payloads;
  /// Redundant-execution verification (DESIGN.md §14; rep.redundancy >= 2):
  /// rounds run and the nodes outvoted in them (sorted, deduplicated).
  std::uint32_t audit_rounds = 0;
  std::vector<std::uint64_t> flagged_liars;

  [[nodiscard]] double execution_time() const {
    return convergence_time;  // measured from t=0 (spawner start), like the paper
  }
  [[nodiscard]] std::uint64_t max_iteration() const {
    std::uint64_t best = 0;
    for (auto it : final_iterations) best = std::max(best, it);
    return best;
  }
  [[nodiscard]] double mean_informative_iteration() const {
    if (final_informative_iterations.empty()) return 0.0;
    double sum = 0.0;
    for (auto it : final_informative_iterations) sum += static_cast<double>(it);
    return sum / static_cast<double>(final_informative_iterations.size());
  }
  [[nodiscard]] double mean_iteration() const {
    if (final_iterations.empty()) return 0.0;
    double sum = 0.0;
    for (auto it : final_iterations) sum += static_cast<double>(it);
    return sum / static_cast<double>(final_iterations.size());
  }
};

class Spawner : public net::Actor {
 public:
  using CompletionCallback = std::function<void(const SpawnerReport&)>;

  /// `bootstrap_addresses`: super-peer address stubs (like the daemons').
  /// `on_complete` fires exactly once, after halt + final-state collection.
  Spawner(AppDescriptor app, std::vector<net::Stub> bootstrap_addresses,
          CompletionCallback on_complete, TimingConfig timing = {},
          ControlPlaneConfig cp = {}, ReputationConfig rep = {});

  void on_start(net::Env& env) override;
  void on_message(const net::Message& message, net::Env& env) override;

  /// The message handlers every Spawner dispatches through (built once).
  static const rmi::Table<Spawner>& table();

  /// Standby mode (DESIGN.md §13; requires `cp.replicate_register` on the
  /// primary): instead of reserving daemons and launching, this spawner
  /// fetches the replicated Application Register from the super-peers, adopts
  /// the running application (version bump + register broadcast re-targets
  /// the daemons), and carries it to completion. Call before the entity
  /// starts.
  void set_standby(bool standby) { standby_ = standby; }

  // --- Introspection ---
  [[nodiscard]] bool launched() const { return launched_; }
  [[nodiscard]] bool halted() const { return halt_broadcast_; }
  [[nodiscard]] bool adopted() const { return adopted_; }
  [[nodiscard]] std::uint64_t reservations_expired() const { return reservations_expired_; }
  [[nodiscard]] std::uint64_t assign_nacks() const { return assign_nacks_; }
  [[nodiscard]] const AppRegister& app_register() const { return reg_; }
  [[nodiscard]] const SpawnerReport& report() const { return report_; }
  [[nodiscard]] const ReputationStore& reputation() const { return local_rep_; }
  /// Stubs of all daemons currently holding a task (for the failure injector).
  [[nodiscard]] std::vector<net::Stub> computing_daemons() const;

 private:
  // Message handlers (table()); each takes the decoded payload, the raw
  // envelope and the Env it arrived on.
  void handle_reserve_reply(const msg::ReserveReply& m, const net::Message& raw,
                            net::Env& env);
  void handle_heartbeat(const msg::Heartbeat& m, const net::Message& raw,
                        net::Env& env);
  void handle_audit_reply(const msg::AuditReply& m, const net::Message& raw,
                          net::Env& env);
  void handle_local_state(const msg::LocalStateReport& m,
                          const net::Message& raw, net::Env& env);
  void handle_final_state(const msg::FinalState& m, const net::Message& raw,
                          net::Env& env);
  void handle_snapshot(const msg::AppRegisterSnapshot& m,
                       const net::Message& raw, net::Env& env);

  void arm_watchdogs();
  void request_daemons(std::uint32_t count);
  /// Ask the overlay for `want` daemons minus the pool, minus the daemons
  /// already requested (if that leaves any).
  void request_shortfall(std::size_t want);
  void expire_pool(double now);
  void try_launch();
  void assign_task(TaskId task, const net::Stub& daemon, bool restart);
  /// Bump the register version, point `task`'s slot at `daemon` and map
  /// `daemon` back to `task`.
  void bind_task(TaskId task, const net::Stub& daemon);
  /// Send `task` to `daemon` with the current register.
  void send_assignment(TaskId task, const net::Stub& daemon, bool restart,
                       bool finalize_only);
  void broadcast_register();
  void replicate_register();
  void begin_recover();
  void adopt();
  void sweep_heartbeats();
  void maybe_halt();
  void broadcast_halt();
  void retry_final_states();
  void serve_final_recovery();
  void finish();

  // Reputation & redundant execution (DESIGN.md §14).
  [[nodiscard]] net::Stub take_from_pool();
  void report_reputation(std::uint64_t node, std::uint8_t kind, double value);
  void broadcast_backup_placement();
  [[nodiscard]] bool audit_pending() const {
    return rep_.redundancy >= 2 && !audit_done_;
  }
  [[nodiscard]] std::uint64_t audit_nonce(TaskId task) const;
  void start_audit();
  void finish_audit();

  AppDescriptor app_;
  TimingConfig timing_;
  ControlPlaneConfig cp_;
  ReputationConfig rep_;
  std::vector<net::Stub> bootstrap_addresses_;
  CompletionCallback on_complete_;
  net::Env* env_ = nullptr;
  PeriodicTimers timers_;

  // Reservation state. Requests are tracked individually and expire after a
  // couple of retry periods — a request sent to a dead super-peer must never
  // count as outstanding forever.
  struct PendingRequest {
    std::uint32_t remaining = 0;
    double issued_at = 0.0;
  };
  [[nodiscard]] std::uint32_t outstanding_requested() const;
  void expire_stale_requests();

  std::uint32_t next_request_id_ = 1;
  std::map<std::uint32_t, PendingRequest> pending_requests_;

  /// Reserved, not yet assigned. `reserved_at` feeds the reservation TTL
  /// (kReservationTtl in spawner.cpp): a pooled daemon that crashed after
  /// ReserveReply would otherwise inflate `have` forever and stall
  /// launch/replacement.
  struct PooledDaemon {
    net::Stub stub;
    double reserved_at = 0.0;
  };
  std::vector<PooledDaemon> pool_;

  // Application state.
  bool launched_ = false;
  AppRegister reg_;
  std::map<net::Stub, TaskId> task_of_daemon_;
  std::map<TaskId, double> last_heartbeat_;
  /// Freshly assigned tasks whose daemon has not heartbeated yet
  /// (kAssignAckTimeout in spawner.cpp): a daemon that died between
  /// ReserveReply and the assignment is NACKed and replaced without waiting
  /// out daemon_timeout.
  std::map<TaskId, double> awaiting_first_heartbeat_;
  std::deque<TaskId> awaiting_replacement_;  ///< failed tasks needing a daemon
  asynciter::GlobalConvergenceBoard board_;

  // Standby / failover state (DESIGN.md §13).
  bool standby_ = false;
  bool adopted_ = false;
  bool have_snapshot_ = false;
  AppRegister snapshot_;

  std::uint64_t reservations_expired_ = 0;
  std::uint64_t assign_nacks_ = 0;

  /// The spawner's own view of daemon scores (DESIGN.md §14): fed by the
  /// failures, first-heartbeat latencies and voting outcomes it observes;
  /// consulted when picking pooled daemons for launch slots and replacements.
  ReputationStore local_rep_;

  // Verification-round state (rep.redundancy >= 2). One audit runs per
  // application, between convergence detection and the halt broadcast.
  struct AuditVote {
    net::Stub voter;
    std::uint64_t digest = 0;
  };
  bool audit_done_ = false;
  bool audit_in_progress_ = false;
  std::uint32_t audit_round_ = 0;
  std::map<TaskId, std::vector<AuditVote>> audit_votes_;
  /// (task, voter node) → challenge send time; doubles as the outstanding set.
  std::map<std::pair<TaskId, std::uint64_t>, double> audit_sent_at_;
  std::size_t audit_expected_ = 0;
  std::size_t audit_received_ = 0;

  // Termination state.
  bool halt_broadcast_ = false;
  bool finished_ = false;
  std::size_t final_states_received_ = 0;
  int final_state_attempts_ = 0;
  /// Tasks whose daemon died around the halt; their final state is recovered
  /// from Backups by finalize-only replacements.
  std::deque<TaskId> awaiting_final_recovery_;
  std::set<TaskId> recovery_requested_;
  SpawnerReport report_;
};

}  // namespace jacepp::core
