#include "core/daemon.hpp"

#include <algorithm>

#include "core/shard.hpp"
#include "linalg/vector_ops.hpp"
#include "serial/buffer_pool.hpp"
#include "support/logging.hpp"

namespace jacepp::core {

namespace {

/// Task `task_id` of `app`, built and initialized, or why a daemon cannot
/// run it.
struct BuiltTask {
  std::unique_ptr<Task> task;
  const char* defect = nullptr;
};

/// Runs before an assignment or an audit challenge touches any state: every
/// field comes from a peer.
BuiltTask build_task(const AppDescriptor& app, TaskId task_id) {
  const auto refuse = [](const char* defect) {
    return BuiltTask{nullptr, defect};
  };
  if (!TaskProgramRegistry::instance().contains(app.program)) {
    return refuse("unknown program");
  }
  if (app.task_count == 0) return refuse("no tasks");
  if (task_id >= app.task_count) return refuse("task id out of range");
  auto task = TaskProgramRegistry::instance().create(app.program);
  if (!task->init(app, task_id)) return refuse("malformed program config");
  return BuiltTask{std::move(task), nullptr};
}

}  // namespace

Daemon::Daemon(std::vector<net::Stub> bootstrap_addresses, TimingConfig timing,
               PerfConfig perf, ControlPlaneConfig cp)
    : timing_(timing),
      cp_(cp),
      bootstrap_addresses_(std::move(bootstrap_addresses)) {
  JACEPP_CHECK(!bootstrap_addresses_.empty(),
               "Daemon needs at least one super-peer bootstrap address");
  JACEPP_CHECK(!perf.early_send &&
                   (perf.grain == 0 || perf.grain == linalg::kVectorOpGrain) &&
                   perf.pool_buffers && !perf.simd && !perf.sell,
               "PerfConfig is inert: only early_send = false, grain 0 or "
               "kVectorOpGrain, pool_buffers = true, simd = false and "
               "sell = false are accepted (ROADMAP item 2)");
}

const rmi::Table<Daemon>& Daemon::table() {
  static const rmi::Table<Daemon> table = [] {
    rmi::Table<Daemon> t;
    t.on<msg::RegisterAck, &Daemon::handle_register_ack>();
    t.on<msg::HeartbeatAck, &Daemon::handle_heartbeat_ack>();
    t.on<msg::Reserved, &Daemon::handle_reserved>();
    t.on<msg::TaskAssignment, &Daemon::handle_assignment>();
    t.on<msg::RegisterUpdate, &Daemon::handle_register_update>();
    t.on<msg::TaskData, &Daemon::handle_task_data>();
    t.on<msg::SaveBackup, &Daemon::handle_save_backup>();
    t.on<msg::QueryBackup, &Daemon::handle_query_backup>();
    t.on<msg::FetchBackup, &Daemon::handle_fetch_backup>();
    t.on<msg::BackupInfo, &Daemon::handle_backup_info>();
    t.on<msg::BackupData, &Daemon::handle_backup_data>();
    t.on<msg::GlobalHalt, &Daemon::handle_halt>();
    t.on<msg::AuditChallenge, &Daemon::handle_audit_challenge>();
    t.on<msg::BackupPlacement, &Daemon::handle_backup_placement>();
    t.on<msg::StateProbe, &Daemon::handle_state_probe>();
    return t;
  }();
  return table;
}

void Daemon::on_start(net::Env& env) {
  env_ = &env;
  begin_bootstrap();
}

void Daemon::on_message(const net::Message& message, net::Env& env) {
  table().dispatch(*this, message, env);
}

void Daemon::on_stop(net::Env& /*env*/) {}

// ---------------------------------------------------------------------------
// Bootstrapping (§5.1)
// ---------------------------------------------------------------------------

void Daemon::begin_bootstrap() {
  set_state(State::Bootstrapping);
  shard_walk_ = 0;
  bump_epoch();
  attempt_register();
}

void Daemon::attempt_register() {
  if (state_ != State::Bootstrapping) return;
  ++bootstrap_attempts_;
  // Sharded register (cp.shard_register): deterministic ring walk starting at
  // the daemon's home super-peer, `shard_of(node_id)` — stable across
  // crash/revive incarnations, so a re-registering daemon lands on the same
  // shard. Otherwise the paper's random choice among the stored addresses;
  // either way, retry until one is reachable (i.e. a RegisterAck comes back
  // before the retry timer).
  const std::size_t n = bootstrap_addresses_.size();
  const std::size_t pick =
      cp_.shard_register
          ? (shard_of(env_->self().node, n) + shard_walk_++) % n
          : env_->rng().index(n);
  const net::Stub& choice = bootstrap_addresses_[pick];
  rmi::invoke(*env_, choice, msg::RegisterDaemon{env_->self()});
  const std::uint64_t epoch = epoch_;
  env_->schedule(timing_.bootstrap_retry, [this, epoch] {
    if (epoch == epoch_ && state_ == State::Bootstrapping) attempt_register();
  });
}

void Daemon::enter_registered(const net::Stub& super_peer) {
  set_state(State::Registered);
  super_peer_ = super_peer;
  last_sp_ack_ = env_->now();
  bump_epoch();
  const std::uint64_t epoch = epoch_;
  timers_.arm(*env_, timing_.heartbeat_period, [this, epoch]() -> bool {
    if (epoch != epoch_ || state_ != State::Registered) return false;
    // SP failure detection: no acks for too long → re-bootstrap elsewhere.
    if (env_->now() - last_sp_ack_ > timing_.super_peer_timeout) {
      JACEPP_LOG(Info, "daemon", "%s lost its super-peer; re-bootstrapping",
                 env_->self().to_debug_string().c_str());
      begin_bootstrap();
      return false;
    }
    rmi::invoke(*env_, super_peer_, msg::Heartbeat{});
    return true;
  });
}

void Daemon::handle_register_ack(const msg::RegisterAck& m, const net::Message&,
                                 net::Env&) {
  if (state_ == State::Bootstrapping) enter_registered(m.super_peer);
}

void Daemon::handle_heartbeat_ack(const msg::HeartbeatAck&,
                                  const net::Message& raw, net::Env& env) {
  if (state_ == State::Registered && raw.from == super_peer_) {
    last_sp_ack_ = env.now();
  }
}

void Daemon::handle_reserved(const msg::Reserved&, const net::Message&,
                             net::Env&) {
  // Accept from Registered (normal) and Bootstrapping (the ack that would
  // have moved us to Registered may have been lost).
  if (state_ == State::Registered || state_ == State::Bootstrapping) {
    set_state(State::Reserved);
    bump_epoch();
    // Fallback: a reservation that never turns into a task means the spawner
    // died or moved on (or sent an assignment this daemon cannot run);
    // rejoin the available pool.
    const std::uint64_t epoch = epoch_;
    env_->schedule(timing_.reserved_timeout, [this, epoch] {
      if (epoch == epoch_ && state_ == State::Reserved) begin_bootstrap();
    });
  }
}

// ---------------------------------------------------------------------------
// Computing
// ---------------------------------------------------------------------------

void Daemon::handle_assignment(const msg::TaskAssignment& m,
                               const net::Message&, net::Env&) {
  if (state_ == State::Computing) return;  // duplicate assignment
  // Refuse an assignment this daemon cannot run before touching any state,
  // so a Reserved daemon's reserved_timeout still returns it to the pool.
  BuiltTask built = build_task(m.app, m.task_id);
  if (built.defect != nullptr) {
    JACEPP_LOG(Warn, "daemon", "%s refused task %u of app %u ('%s'): %s",
               env_->self().to_debug_string().c_str(), m.task_id,
               m.app.app_id, m.app.program.c_str(), built.defect);
    return;
  }
  set_state(State::Computing);
  bump_epoch();

  app_ = m.app;
  task_id_ = m.task_id;
  reg_ = m.reg;
  iteration_ = 0;
  save_seq_ = 0;
  placement_version_ = 0;
  halted_ = false;
  finalize_only_ = m.finalize_only;
  // A finalize-only assignment may arrive for an app this daemon already saw
  // halt; it must still be able to restore and reply.
  if (finalize_only_) finished_apps_.erase(app_.app_id);
  restore_phase_ = RestorePhase::None;
  restore_retried_ = false;
  tracker_.emplace(app_.convergence_threshold, app_.stable_iterations_required);

  backup_peers_ = backup_peers_of(task_id_, app_.task_count,
                                  app_.backup_peer_count);
  encoder_ = checkpoint::DeltaEncoder{};
  iterations_since_checkpoint_ = 0;

  task_ = std::move(built.task);

  // While computing, heartbeats go to the Spawner instead of a Super-Peer.
  const std::uint64_t epoch = epoch_;
  timers_.arm(*env_, timing_.heartbeat_period, [this, epoch]() -> bool {
    if (epoch != epoch_ || state_ != State::Computing) return false;
    rmi::invoke(*env_, reg_.spawner, msg::Heartbeat{});
    return true;
  });

  if (m.restart || m.finalize_only) {
    begin_restore();
  } else {
    start_iterating();
  }
}

void Daemon::handle_register_update(const msg::RegisterUpdate& m,
                                    const net::Message&, net::Env&) {
  if (state_ == State::Computing && m.reg.app_id == app_.app_id &&
      m.reg.version > reg_.version) {
    reg_ = m.reg;
  }
}

void Daemon::handle_task_data(const msg::TaskData& m, const net::Message&,
                              net::Env&) {
  // Dependency data is accepted whenever the task object exists (also during
  // restore, so a replacement starts with fresh neighbour data).
  if (task_ != nullptr && m.app_id == app_.app_id && m.to_task == task_id_) {
    task_->on_data(m.from_task, m.iteration, m.payload);
  }
}

void Daemon::begin_restore() {
  restore_phase_ = RestorePhase::Querying;
  best_backup_available_ = false;
  best_backup_iteration_ = 0;

  const auto& peers = backup_peers_;
  std::size_t queried = 0;
  for (const TaskId peer : peers) {
    const net::Stub holder = reg_.daemon_of(peer);
    if (holder.valid() && holder != env_->self()) {
      msg::QueryBackup query;
      query.app_id = app_.app_id;
      query.task_id = task_id_;
      rmi::invoke(*env_, holder, query);
      ++queried;
    }
  }
  if (queried == 0) {
    restart_from_zero();
    return;
  }
  const std::uint64_t epoch = epoch_;
  env_->schedule(timing_.backup_query_timeout, [this, epoch] {
    if (epoch == epoch_ && restore_phase_ == RestorePhase::Querying) {
      decide_restore();
    }
  });
}

void Daemon::decide_restore() {
  if (!best_backup_available_) {
    restart_from_zero();
    return;
  }
  restore_phase_ = RestorePhase::Fetching;
  msg::FetchBackup fetch;
  fetch.app_id = app_.app_id;
  fetch.task_id = task_id_;
  rmi::invoke(*env_, best_backup_holder_, fetch);
  const std::uint64_t epoch = epoch_;
  env_->schedule(timing_.backup_fetch_timeout, [this, epoch] {
    if (epoch == epoch_ && restore_phase_ == RestorePhase::Fetching) {
      // Holder died (or went silent) between info and fetch.
      fetch_failed();
    }
  });
}

void Daemon::fetch_failed() {
  // One full re-query round first: the failed holder now reports its state
  // unavailable, so the next-best backup (possibly a slightly older full
  // checkpoint elsewhere) wins; only then is iteration 0 the fallback.
  if (!restore_retried_) {
    restore_retried_ = true;
    begin_restore();
    return;
  }
  restart_from_zero();
}

void Daemon::restart_from_zero() {
  restore_phase_ = RestorePhase::None;
  iteration_ = 0;
  ++restarts_from_zero_;
  JACEPP_LOG(Info, "daemon", "task %u restarting from iteration 0", task_id_);
  start_iterating();
}

void Daemon::start_iterating() {
  if (halted_ || state_ != State::Computing) return;
  if (finalize_only_) {
    // Result recovery (post-halt): hand the restored state straight back to
    // the spawner instead of iterating.
    hand_in_final_state();
    return;
  }
  run_iteration();
}

void Daemon::run_iteration() {
  if (halted_ || state_ != State::Computing || restore_phase_ != RestorePhase::None) {
    return;
  }
  const std::uint64_t epoch = epoch_;
  env_->compute([this] { return task_->iterate(); },
                [this, epoch] {
                  if (epoch == epoch_ && state_ == State::Computing && !halted_) {
                    finish_iteration();
                  }
                });
}

void Daemon::finish_iteration() {
  ++iteration_;

  // Push dependency data to neighbours through the current register; slots
  // whose daemon failed and has not been replaced yet hold an invalid stub —
  // those messages are simply not sent (equivalently: lost), per §5.3.
  for (const OutgoingData& out : task_->outgoing()) {
    const net::Stub to = reg_.daemon_of(out.to_task);
    if (!to.valid()) continue;
    msg::TaskData data;
    data.app_id = app_.app_id;
    data.from_task = task_id_;
    data.to_task = out.to_task;
    data.tag = out.tag;
    data.iteration = iteration_;
    data.payload = out.payload;
    rmi::invoke(*env_, to, data);
  }

  // Local convergence detection (§5.5): report 1/0 transitions only. The
  // error is only evaluated when the iteration consumed fresh dependency
  // data; see Task::error_is_informative.
  if (const auto transition = task_->error_is_informative()
                                  ? tracker_->update(task_->local_error())
                                  : std::nullopt) {
    msg::LocalStateReport report;
    report.app_id = app_.app_id;
    report.task_id = task_id_;
    report.stable = *transition;
    report.iteration = iteration_;
    rmi::invoke(*env_, reg_.spawner, report);
  }

  // Checkpoint every k = checkpoint_every iterations (jaceSave, §5.4);
  // checkpoint_every == 0 disables saving entirely.
  if (app_.checkpoint_every > 0 &&
      ++iterations_since_checkpoint_ >= app_.checkpoint_every) {
    iterations_since_checkpoint_ = 0;
    do_checkpoint();
  }

  run_iteration();
}

void Daemon::do_checkpoint() {
  if (backup_peers_.empty()) return;
  // Round-robin across the fixed backup-peer set (paper Figure 5: successive
  // saves of one task land on alternating neighbours). Each save carries the
  // task's whole state.
  const std::size_t target_index = save_seq_ % backup_peers_.size();
  const TaskId target = backup_peers_[target_index];
  ++save_seq_;
  const net::Stub holder = reg_.daemon_of(target);
  if (!holder.valid() || holder == env_->self()) return;

  serial::Bytes state = task_->checkpoint();
  serial::Bytes frame = encoder_.emit(target_index, state, std::nullopt).frame;
  msg::SaveBackup save;
  save.app_id = app_.app_id;
  save.task_id = task_id_;
  save.iteration = iteration_;
  save.state = frame;
  rmi::invoke(*env_, holder, save);
  // The message body holds its own copy: the state and the frame, both
  // encoded into recycled buffers, go back for the next save.
  auto& pool = serial::BufferPool::instance();
  pool.release(std::move(frame));
  pool.release(std::move(state));
}

// ---------------------------------------------------------------------------
// Backups (§5.4): holding neighbours' checkpoints, and the restore replies
// ---------------------------------------------------------------------------

void Daemon::handle_save_backup(const msg::SaveBackup& m, const net::Message&,
                                net::Env&) {
  if (finished_apps_.count(m.app_id) != 0) return;  // app already halted
  // Like the paper's jaceSave, a save is one message with no reply: a frame
  // that does not decode, or one older than the state held, is dropped.
  // store_frame reads the frame from Bytes, so the view is copied into a
  // recycled buffer.
  auto& pool = serial::BufferPool::instance();
  serial::Bytes frame = pool.acquire();
  frame.assign(m.state.begin(), m.state.end());
  backup_store_.store_frame(m.app_id, m.task_id, m.iteration, frame);
  pool.release(std::move(frame));
}

void Daemon::handle_query_backup(const msg::QueryBackup& m,
                                 const net::Message& raw, net::Env& env) {
  const BackupStore::Entry* entry = backup_store_.find(m.app_id, m.task_id);
  msg::BackupInfo info;
  info.app_id = m.app_id;
  info.task_id = m.task_id;
  info.available = entry != nullptr;
  info.iteration = entry != nullptr ? entry->iteration : 0;
  rmi::invoke(env, raw.from, info);
}

void Daemon::handle_fetch_backup(const msg::FetchBackup& m,
                                 const net::Message& raw, net::Env& env) {
  const BackupStore::Entry* entry = backup_store_.find(m.app_id, m.task_id);
  const std::uint64_t iteration = entry != nullptr ? entry->iteration : 0;
  // Rollback: the held state, once its CRC matches. A damaged state is
  // dropped and the restarter is told to fall back (it re-queries the other
  // holders).
  auto state = entry != nullptr
                   ? backup_store_.materialize(m.app_id, m.task_id)
                   : std::nullopt;
  if (state.has_value()) {
    msg::BackupData data;
    data.app_id = m.app_id;
    data.task_id = m.task_id;
    data.iteration = iteration;
    data.state = std::move(*state);
    rmi::invoke(env, raw.from, data);
  } else {
    // The checkpoint vanished between query and fetch (holder restart,
    // eviction, a damaged state); tell the restarter so it can fall back.
    msg::BackupInfo info;
    info.app_id = m.app_id;
    info.task_id = m.task_id;
    info.available = false;
    rmi::invoke(env, raw.from, info);
  }
}

void Daemon::handle_backup_info(const msg::BackupInfo& m,
                                const net::Message& raw, net::Env&) {
  if (m.app_id != app_.app_id || m.task_id != task_id_) return;
  if (restore_phase_ == RestorePhase::Querying && m.available &&
      (!best_backup_available_ || m.iteration > best_backup_iteration_)) {
    best_backup_available_ = true;
    best_backup_iteration_ = m.iteration;
    best_backup_holder_ = raw.from;
  } else if (restore_phase_ == RestorePhase::Fetching && !m.available &&
             raw.from == best_backup_holder_) {
    // The chosen holder's state turned out damaged (or it lost the
    // checkpoint since the query); fall back instead of waiting for the
    // fetch timeout.
    fetch_failed();
  }
}

void Daemon::handle_backup_data(const msg::BackupData& m, const net::Message&,
                                net::Env&) {
  if (restore_phase_ == RestorePhase::Fetching && m.app_id == app_.app_id &&
      m.task_id == task_id_) {
    if (!task_->restore(m.state)) {
      // The holder served a state that does not fit the task: treat it like
      // a failed fetch (one re-query round, then iteration 0).
      JACEPP_LOG(Warn, "daemon", "task %u refused a backup state that does "
                 "not fit it", task_id_);
      fetch_failed();
      return;
    }
    restore_phase_ = RestorePhase::None;
    iteration_ = m.iteration;
    tracker_->reset();
    ++restores_from_backup_;
    JACEPP_LOG(Info, "daemon", "task %u restored from backup at iteration %llu",
               task_id_, static_cast<unsigned long long>(m.iteration));
    start_iterating();
  }
}

void Daemon::handle_state_probe(const msg::StateProbe& m,
                                const net::Message& raw, net::Env& env) {
  // A standby spawner rebuilding its convergence board after adopting the
  // application (DESIGN.md §13) asks for an absolute state report.
  if (state_ != State::Computing || halted_ || m.app_id != app_.app_id) {
    return;
  }
  msg::LocalStateReport report;
  report.app_id = app_.app_id;
  report.task_id = task_id_;
  report.stable = tracker_.has_value() && tracker_->stable();
  report.iteration = iteration_;
  rmi::invoke(env, raw.from, report);
}

void Daemon::handle_halt(const msg::GlobalHalt& m, const net::Message&,
                         net::Env&) {
  // finalize_only daemons answer with FinalState on their own schedule; a
  // re-broadcast halt must not interrupt their restore.
  if (state_ != State::Computing || m.app_id != app_.app_id || halted_ ||
      finalize_only_) {
    return;
  }
  hand_in_final_state();
}

void Daemon::hand_in_final_state() {
  halted_ = true;
  msg::FinalState final_state;
  final_state.app_id = app_.app_id;
  final_state.task_id = task_id_;
  final_state.iteration = iteration_;
  final_state.informative_iterations = task_->informative_iterations();
  final_state.payload = task_->final_payload();
  rmi::invoke(*env_, reg_.spawner, final_state);
  teardown_task();
  begin_bootstrap();  // rejoin the available pool
}

// ---------------------------------------------------------------------------
// Fault-model defenses (DESIGN.md §14)
// ---------------------------------------------------------------------------

namespace {
std::uint64_t fnv1a(const serial::Bytes& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

void Daemon::handle_audit_challenge(const msg::AuditChallenge& m,
                                    const net::Message& raw, net::Env& env) {
  // Redundant-execution verification: re-run the challenged task on a FRESH
  // instance (the daemon's own task state is untouched) and reply with a
  // digest of the resulting checkpoint. The digest is a pure function of
  // (descriptor, task id, iteration count), so every honest replica produces
  // identical bits; only a forged reply can be outvoted. The re-run goes
  // through env.compute, so its (throttled) cost is charged like real work.
  // The descriptor comes from a peer, so the task is built and initialized
  // before anything else happens, and a defect drops the challenge.
  BuiltTask built = build_task(m.app, m.task_id);
  if (built.defect != nullptr) {
    JACEPP_LOG(Warn, "daemon", "%s dropped an audit of task %u of app %u "
               "('%s'): %s", env.self().to_debug_string().c_str(),
               m.task_id, m.app.app_id, m.app.program.c_str(), built.defect);
    return;
  }
  std::shared_ptr<Task> fresh = std::move(built.task);
  const net::Stub requester = raw.from;
  env.compute(
      [fresh, m] {
        double flops = 0.0;
        for (std::uint32_t i = 0; i < m.iterations; ++i) {
          flops += fresh->iterate();
        }
        return flops;
      },
      [this, fresh, m, requester] {
        msg::AuditReply reply;
        reply.app_id = m.app.app_id;
        reply.task_id = m.task_id;
        reply.round = m.round;
        reply.nonce = m.nonce;
        reply.digest = fnv1a(fresh->checkpoint());
        rmi::invoke(*env_, requester, reply);
      });
}

void Daemon::handle_backup_placement(const msg::BackupPlacement& m,
                                     const net::Message&, net::Env&) {
  if (state_ != State::Computing || m.app_id != app_.app_id || finalize_only_) {
    return;
  }
  if (m.version < placement_version_) return;
  placement_version_ = m.version;
  const std::uint32_t want = std::min<std::uint32_t>(
      app_.backup_peer_count, app_.task_count > 0 ? app_.task_count - 1 : 0);
  std::vector<TaskId> ranked;
  for (const TaskId task : m.ranking) {
    if (ranked.size() >= want) break;
    if (task == task_id_ || task >= app_.task_count) continue;
    ranked.push_back(task);
  }
  if (ranked.empty() || ranked == backup_peers_) return;
  backup_peers_ = std::move(ranked);
}

void Daemon::teardown_task() {
  finished_apps_.insert(app_.app_id);
  // Retain the app's Backups for a grace period: a post-halt finalize-only
  // replacement may still need to read them (see TaskAssignment).
  const AppId app = app_.app_id;
  env_->schedule(kBackupRetention,
                 [this, app] { backup_store_.clear_app(app); });
  task_.reset();
  tracker_.reset();
  backup_peers_.clear();
  restore_phase_ = RestorePhase::None;
  finalize_only_ = false;
}

}  // namespace jacepp::core
