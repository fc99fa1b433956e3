// Daemon entity (paper §4.2): the computing peer.
//
// Lifecycle:
//   Bootstrapping → Registered (indexed by a Super-Peer, §5.1)
//                 → Reserved   (claimed for a Spawner, §5.2)
//                 → Computing  (running a Task; heartbeats go to the Spawner,
//                               checkpoints go to backup-peers, §5.3–5.5)
//                 → back to Bootstrapping after GlobalHalt.
//
// A replacement daemon (TaskAssignment.restart) first runs the Backup
// recovery protocol of §5.4: query the task's backup-peers, reload the
// highest-iteration checkpoint, or restart from iteration 0 when none
// survived.
//
// The Daemon also hosts a BackupStore for its neighbours' checkpoints.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "asynciter/convergence.hpp"
#include "core/backup.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/periodic.hpp"
#include "core/task.hpp"
#include "net/env.hpp"
#include "rmi/rmi.hpp"

namespace jacepp::core {

class Daemon : public net::Actor {
 public:
  /// How long a daemon keeps a finished app's Backups after the halt, so a
  /// post-halt finalize-only replacement can still read them.
  static constexpr double kBackupRetention = 30.0;

  enum class State : std::uint8_t {
    Bootstrapping,
    Registered,
    Reserved,
    Computing,
  };

  /// `bootstrap_addresses` is the paper's stored list of super-peer IP
  /// addresses: address stubs (incarnation 0) tried in random order — or, with
  /// `cp.shard_register`, in a deterministic ring walk from the daemon's home
  /// shard (DESIGN.md §13). `perf` is inert and must hold the values
  /// PerfConfig documents; any other value aborts.
  Daemon(std::vector<net::Stub> bootstrap_addresses, TimingConfig timing = {},
         PerfConfig perf = {}, ControlPlaneConfig cp = {});

  void on_start(net::Env& env) override;
  void on_message(const net::Message& message, net::Env& env) override;
  void on_stop(net::Env& env) override;

  /// The message handlers every Daemon dispatches through (built once).
  static const rmi::Table<Daemon>& table();

  // --- Introspection (sim harness / post-shutdown) ---
  [[nodiscard]] State state() const { return state_; }

  /// Thread-safe state snapshot (readable while the daemon's worker thread
  /// runs in the threaded runtime; everything else here is not).
  [[nodiscard]] State observed_state() const {
    return static_cast<State>(observable_state_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::uint64_t iteration() const { return iteration_; }
  [[nodiscard]] TaskId task_id() const { return task_id_; }
  [[nodiscard]] AppId app_id() const { return app_.app_id; }
  [[nodiscard]] bool computing() const { return state_ == State::Computing; }
  [[nodiscard]] const BackupStore& backups() const { return backup_store_; }
  [[nodiscard]] std::uint64_t restores_from_backup() const { return restores_from_backup_; }
  [[nodiscard]] std::uint64_t restarts_from_zero() const { return restarts_from_zero_; }
  [[nodiscard]] std::uint64_t bootstrap_attempts() const { return bootstrap_attempts_; }
  [[nodiscard]] const net::Stub& registered_super_peer() const { return super_peer_; }
  [[nodiscard]] Task* task() { return task_.get(); }

 private:
  enum class RestorePhase : std::uint8_t { None, Querying, Fetching };

  // Bootstrapping (§5.1).
  void begin_bootstrap();
  void attempt_register();

  // Registered-state heartbeating and SP failure detection (§5.3).
  void enter_registered(const net::Stub& super_peer);

  // Message handlers (table()); each takes the decoded payload, the raw
  // envelope and the Env it arrived on.
  void handle_register_ack(const msg::RegisterAck& m, const net::Message& raw,
                           net::Env& env);
  void handle_heartbeat_ack(const msg::HeartbeatAck& m,
                            const net::Message& raw, net::Env& env);
  void handle_reserved(const msg::Reserved& m, const net::Message& raw,
                       net::Env& env);
  void handle_assignment(const msg::TaskAssignment& m, const net::Message& raw,
                         net::Env& env);
  void handle_register_update(const msg::RegisterUpdate& m,
                              const net::Message& raw, net::Env& env);
  void handle_task_data(const msg::TaskData& m, const net::Message& raw,
                        net::Env& env);
  void handle_save_backup(const msg::SaveBackup& m, const net::Message& raw,
                          net::Env& env);
  void handle_query_backup(const msg::QueryBackup& m, const net::Message& raw,
                           net::Env& env);
  void handle_fetch_backup(const msg::FetchBackup& m, const net::Message& raw,
                           net::Env& env);
  void handle_backup_info(const msg::BackupInfo& m, const net::Message& raw,
                          net::Env& env);
  void handle_backup_data(const msg::BackupData& m, const net::Message& raw,
                          net::Env& env);
  void handle_halt(const msg::GlobalHalt& m, const net::Message& raw,
                   net::Env& env);
  void handle_audit_challenge(const msg::AuditChallenge& m,
                              const net::Message& raw, net::Env& env);
  void handle_backup_placement(const msg::BackupPlacement& m,
                               const net::Message& raw, net::Env& env);
  void handle_state_probe(const msg::StateProbe& m, const net::Message& raw,
                          net::Env& env);

  // Computing.
  void begin_restore();
  void decide_restore();
  void fetch_failed();
  void restart_from_zero();
  void start_iterating();
  void run_iteration();
  void finish_iteration();
  void do_checkpoint();
  /// Send the task's FinalState to the spawner, tear the task down and
  /// rejoin the available pool (the halt, or a finalize-only recovery).
  void hand_in_final_state();
  void teardown_task();

  void bump_epoch() { ++epoch_; }

  TimingConfig timing_;
  ControlPlaneConfig cp_;
  std::vector<net::Stub> bootstrap_addresses_;
  net::Env* env_ = nullptr;
  PeriodicTimers timers_;

  void set_state(State s) {
    state_ = s;
    observable_state_.store(static_cast<std::uint8_t>(s), std::memory_order_relaxed);
  }

  State state_ = State::Bootstrapping;
  std::atomic<std::uint8_t> observable_state_{0};
  std::uint64_t epoch_ = 0;  ///< bumped on every transition; stale timers die

  // Registered state.
  net::Stub super_peer_;
  double last_sp_ack_ = 0.0;
  std::uint64_t bootstrap_attempts_ = 0;
  /// Ring-walk position for sharded bootstrap (reset per bootstrap round so a
  /// re-registering daemon tries its home super-peer first).
  std::uint64_t shard_walk_ = 0;

  // Computing state.
  AppDescriptor app_;
  TaskId task_id_ = 0;
  AppRegister reg_;
  std::unique_ptr<Task> task_;
  std::uint64_t iteration_ = 0;
  std::uint64_t save_seq_ = 0;
  std::optional<asynciter::LocalConvergenceTracker> tracker_;
  bool halted_ = false;
  bool finalize_only_ = false;

  // Checkpoint emission (§5.4; frames in core/checkpoint.hpp).
  std::vector<TaskId> backup_peers_;
  /// Highest BackupPlacement version applied (reputation-ranked holder set,
  /// DESIGN.md §14); stale broadcasts are dropped.
  std::uint64_t placement_version_ = 0;
  checkpoint::DeltaEncoder encoder_;
  std::uint64_t iterations_since_checkpoint_ = 0;

  // Restore protocol state (§5.4).
  RestorePhase restore_phase_ = RestorePhase::None;
  bool best_backup_available_ = false;
  std::uint64_t best_backup_iteration_ = 0;
  net::Stub best_backup_holder_;
  /// A fetch that failed on a damaged state re-runs the query round once
  /// (that holder now reports unavailable) before falling back to zero.
  bool restore_retried_ = false;

  BackupStore backup_store_;
  /// Applications this daemon saw halt: late in-flight SaveBackups for them
  /// are dropped instead of resurrecting cleared checkpoints.
  std::set<AppId> finished_apps_;

  std::uint64_t restores_from_backup_ = 0;
  std::uint64_t restarts_from_zero_ = 0;
};

}  // namespace jacepp::core
