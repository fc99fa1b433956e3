#include "core/spawner.hpp"

#include <algorithm>

#include "core/shard.hpp"
#include "support/logging.hpp"

namespace jacepp::core {

namespace {

/// A reserved daemon that sits unassigned in the pool longer than this is
/// written off. The daemon re-registers on its own after `reserved_timeout`,
/// whose simulator default (6 s) is above this, so both sides agree the
/// reservation lapsed.
constexpr double kReservationTtl = 4.0;
/// NACK-and-retry window for a fresh assignment: a daemon that has not
/// heartbeated this long after it (it crashed between ReserveReply and the
/// assignment) is replaced without waiting out `daemon_timeout`. Must exceed
/// `heartbeat_period` with margin.
constexpr double kAssignAckTimeout = 1.5;
/// Super-peers holding an Application Register replica (the first ones of
/// the bootstrap list; cp.replicate_register).
constexpr std::size_t kReplicaCount = 2;
/// Iterations per audit re-run, and how long the spawner waits for the
/// votes (rep.redundancy >= 2).
constexpr std::uint32_t kAuditIterations = 3;
constexpr double kAuditTimeout = 2.0;

}  // namespace

Spawner::Spawner(AppDescriptor app, std::vector<net::Stub> bootstrap_addresses,
                 CompletionCallback on_complete, TimingConfig timing,
                 ControlPlaneConfig cp, ReputationConfig rep)
    : app_(std::move(app)),
      timing_(timing),
      cp_(cp),
      rep_(rep),
      bootstrap_addresses_(std::move(bootstrap_addresses)),
      on_complete_(std::move(on_complete)) {
  JACEPP_CHECK(app_.task_count > 0, "Spawner: application needs >= 1 task");
  JACEPP_CHECK(!bootstrap_addresses_.empty(),
               "Spawner needs at least one super-peer bootstrap address");

  board_.resize(app_.task_count);
  report_.final_iterations.assign(app_.task_count, 0);
  report_.final_informative_iterations.assign(app_.task_count, 0);
  report_.final_payloads.assign(app_.task_count, {});
}

const rmi::Table<Spawner>& Spawner::table() {
  static const rmi::Table<Spawner> table = [] {
    rmi::Table<Spawner> t;
    t.on<msg::ReserveReply, &Spawner::handle_reserve_reply>();
    t.on<msg::Heartbeat, &Spawner::handle_heartbeat>();
    t.on<msg::AuditReply, &Spawner::handle_audit_reply>();
    t.on<msg::LocalStateReport, &Spawner::handle_local_state>();
    t.on<msg::FinalState, &Spawner::handle_final_state>();
    t.on<msg::AppRegisterSnapshot, &Spawner::handle_snapshot>();
    return t;
  }();
  return table;
}

void Spawner::on_start(net::Env& env) {
  env_ = &env;
  reg_.app_id = app_.app_id;
  reg_.spawner = env.self();

  if (standby_) {
    // Failover path: adopt a replicated register instead of launching.
    begin_recover();
    return;
  }

  request_daemons(app_.task_count);
  arm_watchdogs();
}

void Spawner::arm_watchdogs() {
  // Reservation watchdog: while the launch (or a replacement) is short of
  // daemons and no request is in flight, ask again — daemons may have joined
  // the super-peer registers in the meantime. Stale pool entries (daemon
  // crashed after ReserveReply; kReservationTtl) are written off first so
  // they stop masking the shortfall.
  timers_.arm(*env_, timing_.reserve_retry, [this]() -> bool {
    if (finished_) return false;
    expire_stale_requests();
    expire_pool(env_->now());
    request_shortfall(launched_ ? awaiting_replacement_.size() +
                                      awaiting_final_recovery_.size()
                                : app_.task_count);
    return true;
  });

  // Heartbeat sweep for computing daemons (§5.3). The sweep also re-checks
  // the halt condition, since maybe_halt() can defer on a stale heartbeat.
  timers_.arm(*env_, timing_.sweep_period, [this]() -> bool {
    if (finished_) return false;
    if (launched_ && !halt_broadcast_) {
      sweep_heartbeats();
      maybe_halt();
    }
    return true;
  });
}

void Spawner::on_message(const net::Message& message, net::Env& env) {
  table().dispatch(*this, message, env);
}

std::vector<net::Stub> Spawner::computing_daemons() const {
  std::vector<net::Stub> stubs;
  for (const auto& entry : reg_.tasks) {
    if (entry.daemon.valid()) stubs.push_back(entry.daemon);
  }
  return stubs;
}

void Spawner::request_daemons(std::uint32_t count) {
  if (count == 0) return;
  msg::ReserveRequest request;
  request.request_id = next_request_id_++;
  request.count = count;
  request.requester = env_->self();
  // Bootstrap: pick a random super-peer address (§5.1, same strategy as the
  // daemons) — or, with the sharded register, spread requests over the
  // overlay by request id so no one super-peer fields all reservation
  // traffic. If the entry point is down the watchdog retries elsewhere.
  const std::size_t n = bootstrap_addresses_.size();
  const std::size_t pick = cp_.shard_register
                               ? shard_of(request.request_id, n)
                               : env_->rng().index(n);
  rmi::invoke(*env_, bootstrap_addresses_[pick], request);
  pending_requests_[request.request_id] = PendingRequest{count, env_->now()};
}

void Spawner::request_shortfall(std::size_t want) {
  const std::size_t needed = want > pool_.size() ? want - pool_.size() : 0;
  const std::uint32_t outstanding = outstanding_requested();
  if (needed > outstanding) {
    request_daemons(static_cast<std::uint32_t>(needed - outstanding));
  }
}

void Spawner::expire_pool(double now) {
  const double cutoff = now - kReservationTtl;
  const std::size_t before = pool_.size();
  std::erase_if(pool_, [&](const PooledDaemon& p) {
    return p.reserved_at < cutoff;
  });
  reservations_expired_ += before - pool_.size();
}

std::uint32_t Spawner::outstanding_requested() const {
  std::uint32_t total = 0;
  for (const auto& [id, req] : pending_requests_) total += req.remaining;
  return total;
}

void Spawner::expire_stale_requests() {
  // A request whose replies have not fully arrived within two retry periods
  // is written off (its entry point may be dead); any late grants still
  // count — the daemons arrive Reserved and get used or time back out.
  const double cutoff = env_->now() - 2.0 * timing_.reserve_retry;
  for (auto it = pending_requests_.begin(); it != pending_requests_.end();) {
    if (it->second.issued_at < cutoff) {
      it = pending_requests_.erase(it);
    } else {
      ++it;
    }
  }
}

void Spawner::handle_reserve_reply(const msg::ReserveReply& m,
                                   const net::Message&, net::Env&) {
  const auto granted = static_cast<std::uint32_t>(m.daemons.size());
  const auto pending = pending_requests_.find(m.request_id);
  if (pending != pending_requests_.end()) {
    if (m.exhausted || granted >= pending->second.remaining) {
      // Fully served, or the overlay has nothing left for the remainder:
      // stop counting it so the watchdog can ask again later.
      pending_requests_.erase(pending);
    } else {
      pending->second.remaining -= granted;
    }
  }
  for (const net::Stub& daemon : m.daemons) {
    pool_.push_back(PooledDaemon{daemon, env_->now()});
  }

  if (!launched_) {
    try_launch();
  } else {
    // Serve pending replacements FIFO (paper Figure 4). With rep.enabled the
    // pool hands out its best-scored daemon instead of its oldest — churn-
    // aware placement keeps flappy hosts out of the replacement slots.
    while (!awaiting_replacement_.empty() && !pool_.empty()) {
      const TaskId task = awaiting_replacement_.front();
      awaiting_replacement_.pop_front();
      assign_task(task, take_from_pool(), /*restart=*/true);
      ++report_.replacements;
    }
    if (halt_broadcast_) serve_final_recovery();
    if (!pool_.empty() && awaiting_replacement_.empty() &&
        awaiting_final_recovery_.empty() && halt_broadcast_) {
      // Late grants after halt: nothing to run; daemons fall back to
      // re-registration via their reserved-timeout.
      pool_.clear();
    }
  }
}

void Spawner::try_launch() {
  if (launched_ || pool_.size() < app_.task_count) return;
  launched_ = true;
  report_.launch_time = env_->now();

  if (rep_.enabled) {
    // Launch on the best-scored daemons first (stable: FIFO on ties, so the
    // all-neutral cold start launches exactly like the default path).
    std::stable_sort(pool_.begin(), pool_.end(),
                     [this](const PooledDaemon& a, const PooledDaemon& b) {
                       return local_rep_.score_of(a.stub.node) >
                              local_rep_.score_of(b.stub.node);
                     });
  }

  reg_.version = 1;
  reg_.tasks.clear();
  for (TaskId task = 0; task < app_.task_count; ++task) {
    TaskEntry entry;
    entry.task_id = task;
    entry.daemon = pool_[task].stub;
    reg_.tasks.push_back(entry);
    task_of_daemon_[pool_[task].stub] = task;
    last_heartbeat_[task] = env_->now();
    awaiting_first_heartbeat_[task] = env_->now();
  }
  pool_.erase(pool_.begin(), pool_.begin() + app_.task_count);

  for (const TaskEntry& entry : reg_.tasks) {
    send_assignment(entry.task_id, entry.daemon, /*restart=*/false,
                    /*finalize_only=*/false);
  }
  replicate_register();
  broadcast_backup_placement();
  JACEPP_LOG(Info, "spawner", "application %u launched on %u daemons at %.3f",
             app_.app_id, app_.task_count, env_->now());
}

void Spawner::assign_task(TaskId task, const net::Stub& daemon, bool restart) {
  // Update the register first so the assignment carries the fresh mapping.
  bind_task(task, daemon);
  last_heartbeat_[task] = env_->now();
  awaiting_first_heartbeat_[task] = env_->now();
  board_.invalidate(task);
  send_assignment(task, daemon, restart, /*finalize_only=*/false);
  broadcast_register();
}

void Spawner::bind_task(TaskId task, const net::Stub& daemon) {
  ++reg_.version;
  for (TaskEntry& entry : reg_.tasks) {
    if (entry.task_id == task) entry.daemon = daemon;
  }
  task_of_daemon_[daemon] = task;
}

void Spawner::send_assignment(TaskId task, const net::Stub& daemon,
                              bool restart, bool finalize_only) {
  msg::TaskAssignment assignment;
  assignment.app = app_;
  assignment.task_id = task;
  assignment.reg = reg_;
  assignment.restart = restart;
  assignment.finalize_only = finalize_only;
  rmi::invoke(*env_, daemon, assignment);
}

void Spawner::broadcast_register() {
  msg::RegisterUpdate update;
  update.reg = reg_;
  for (const TaskEntry& entry : reg_.tasks) {
    if (entry.daemon.valid()) {
      rmi::invoke(*env_, entry.daemon, update);
    }
  }
  replicate_register();
  broadcast_backup_placement();
}

void Spawner::replicate_register() {
  // Push the Application Register to the first kReplicaCount super-peers on
  // every version change (DESIGN.md §13). They keep the highest version, so
  // replicas racing each other or a failover are harmless.
  if (!cp_.replicate_register) return;
  msg::AppRegisterReplica replica;
  replica.reg = reg_;
  const std::size_t n = std::min(kReplicaCount, bootstrap_addresses_.size());
  for (std::size_t i = 0; i < n; ++i) {
    rmi::invoke(*env_, bootstrap_addresses_[i], replica);
  }
}

void Spawner::begin_recover() {
  // Ask every replica-holding super-peer for its snapshot, then adopt the
  // highest version seen after a collection window; keep trying while the
  // replica has not surfaced yet (the primary may not have pushed one before
  // dying — adoption is only possible once a launch was replicated).
  const std::size_t n = std::min(kReplicaCount, bootstrap_addresses_.size());
  for (std::size_t i = 0; i < n; ++i) {
    rmi::invoke(*env_, bootstrap_addresses_[i],
                msg::FetchAppRegister{app_.app_id});
  }
  env_->schedule(timing_.bootstrap_retry, [this] {
    if (finished_ || adopted_) return;
    if (have_snapshot_) {
      adopt();
    } else {
      begin_recover();
    }
  });
}

void Spawner::handle_snapshot(const msg::AppRegisterSnapshot& m,
                              const net::Message&, net::Env&) {
  if (!standby_ || adopted_ || !m.available || m.reg.app_id != app_.app_id) {
    return;
  }
  if (!have_snapshot_ || m.reg.version > snapshot_.version) {
    snapshot_ = m.reg;
    have_snapshot_ = true;
  }
}

void Spawner::adopt() {
  adopted_ = true;
  launched_ = true;
  report_.launch_time = env_->now();
  reg_ = snapshot_;
  reg_.spawner = env_->self();
  ++reg_.version;

  task_of_daemon_.clear();
  for (const TaskEntry& entry : reg_.tasks) {
    if (entry.daemon.valid()) task_of_daemon_[entry.daemon] = entry.task_id;
    // Heartbeat grace from adoption time; daemons re-target their heartbeats
    // as soon as the register broadcast reaches them.
    last_heartbeat_[entry.task_id] = env_->now();
    board_.invalidate(entry.task_id);
  }
  broadcast_register();
  // Rebuild the convergence board the primary took with it.
  for (const TaskEntry& entry : reg_.tasks) {
    if (entry.daemon.valid()) {
      rmi::invoke(*env_, entry.daemon, msg::StateProbe{app_.app_id});
    }
  }
  arm_watchdogs();
  JACEPP_LOG(Info, "spawner",
             "standby adopted application %u at version %llu (%.3f)",
             app_.app_id, static_cast<unsigned long long>(reg_.version),
             env_->now());
}

void Spawner::handle_heartbeat(const msg::Heartbeat&, const net::Message& raw,
                               net::Env& env) {
  const auto it = task_of_daemon_.find(raw.from);
  if (it == task_of_daemon_.end()) return;
  if (rep_.enabled) {
    // First heartbeat after an assignment doubles as a speed probe: its
    // latency reflects queueing + wire + the daemon's own load.
    const auto ack = awaiting_first_heartbeat_.find(it->second);
    if (ack != awaiting_first_heartbeat_.end()) {
      const double norm = 1.0 / (1.0 + (env.now() - ack->second));
      local_rep_.observe_speed(raw.from.node, norm);
      report_reputation(raw.from.node, msg::ReputationReport::Speed, norm);
    }
  }
  last_heartbeat_[it->second] = env.now();
  awaiting_first_heartbeat_.erase(it->second);
}

void Spawner::sweep_heartbeats() {
  const double deadline = env_->now() - timing_.daemon_timeout;
  const double ack_deadline = env_->now() - kAssignAckTimeout;
  bool changed = false;
  for (TaskEntry& entry : reg_.tasks) {
    if (!entry.daemon.valid()) continue;  // already awaiting replacement
    const auto hb = last_heartbeat_.find(entry.task_id);
    const bool timed_out =
        hb != last_heartbeat_.end() && hb->second < deadline;
    // NACK window (kAssignAckTimeout): an assignment whose daemon never
    // heartbeated at all — it crashed between ReserveReply and the assignment
    // — is retried early instead of waiting out the full daemon_timeout.
    bool nacked = false;
    if (!timed_out) {
      const auto ack = awaiting_first_heartbeat_.find(entry.task_id);
      nacked = ack != awaiting_first_heartbeat_.end() &&
               ack->second < ack_deadline;
    }
    if (timed_out || nacked) {
      JACEPP_LOG(Info, "spawner",
                 "daemon %s (task %u) %s at %.3f; scheduling replacement",
                 entry.daemon.to_debug_string().c_str(), entry.task_id,
                 nacked ? "never acknowledged its assignment" : "timed out",
                 env_->now());
      if (rep_.enabled) {
        local_rep_.observe_failure(entry.daemon.node);
        report_reputation(entry.daemon.node, msg::ReputationReport::Failure,
                          0.0);
      }
      task_of_daemon_.erase(entry.daemon);
      entry.daemon = net::Stub{};
      awaiting_first_heartbeat_.erase(entry.task_id);
      board_.invalidate(entry.task_id);
      awaiting_replacement_.push_back(entry.task_id);
      if (nacked) {
        ++assign_nacks_;
      } else {
        ++report_.failures_detected;
      }
      ++reg_.version;
      changed = true;
    }
  }
  if (changed) {
    broadcast_register();
    // Ask the overlay for replacements right away (the watchdog would also
    // catch this, but the paper's spawner reacts immediately, Figure 4).
    request_shortfall(awaiting_replacement_.size());
  }
}

void Spawner::handle_local_state(const msg::LocalStateReport& m,
                                 const net::Message& raw, net::Env&) {
  if (halt_broadcast_ || m.app_id != app_.app_id) return;
  // Ignore reports from daemons that are no longer the owner of the task
  // (e.g. a zombie that we already declared dead).
  if (reg_.daemon_of(m.task_id) != raw.from) return;
  board_.set(m.task_id, m.stable);
  maybe_halt();
}

void Spawner::maybe_halt() {
  if (halt_broadcast_ || !launched_ || !board_.all_stable() ||
      !awaiting_replacement_.empty()) {
    return;
  }
  // Freshness gate: a daemon that crashed after reporting stable leaves its
  // board cell at 1 until the timeout fires; requiring a recent heartbeat
  // from every computing daemon shrinks that race window from the full
  // daemon_timeout down to ~2 heartbeat periods. (The sweep timer re-checks,
  // so a halt deferred here still happens.)
  const double fresh_after = env_->now() - 2.5 * timing_.heartbeat_period;
  for (const TaskEntry& entry : reg_.tasks) {
    if (!entry.daemon.valid()) return;
    const auto hb = last_heartbeat_.find(entry.task_id);
    if (hb == last_heartbeat_.end() || hb->second < fresh_after) return;
  }
  if (audit_pending()) {
    // Redundant-execution gate (DESIGN.md §14): every halt condition is met,
    // but results must survive a verification round first. finish_audit()
    // re-enters maybe_halt() once the votes are tallied.
    start_audit();
    return;
  }
  broadcast_halt();
}

void Spawner::broadcast_halt() {
  halt_broadcast_ = true;
  report_.convergence_time = env_->now();
  msg::GlobalHalt halt;
  halt.app_id = app_.app_id;
  for (const TaskEntry& entry : reg_.tasks) {
    if (entry.daemon.valid()) rmi::invoke(*env_, entry.daemon, halt);
  }
  JACEPP_LOG(Info, "spawner", "global convergence detected at %.3f",
             report_.convergence_time);
  // Collect FinalStates, but do not wait forever.
  env_->schedule(timing_.final_state_timeout, [this] { retry_final_states(); });
}

void Spawner::retry_final_states() {
  if (finished_) return;
  if (final_state_attempts_ >= 4 || final_states_received_ == app_.task_count) {
    finish();
    return;
  }
  ++final_state_attempts_;
  const double presumed_dead_before = env_->now() - timing_.daemon_timeout;
  msg::GlobalHalt halt;
  halt.app_id = app_.app_id;
  for (TaskId task = 0; task < app_.task_count; ++task) {
    if (!report_.final_payloads[task].empty()) continue;
    const net::Stub daemon = reg_.daemon_of(task);
    const auto hb = last_heartbeat_.find(task);
    const bool presumed_dead = !daemon.valid() || hb == last_heartbeat_.end() ||
                               hb->second < presumed_dead_before;
    if (!presumed_dead) {
      // Likely a lost halt/FinalState message: ask again.
      rmi::invoke(*env_, daemon, halt);
    } else if (recovery_requested_.insert(task).second) {
      // The daemon died in the stable→halt race window: recover the task's
      // last checkpoint through a finalize-only replacement (§5.4 Backups
      // are retained by the other daemons for exactly this).
      JACEPP_LOG(Info, "spawner",
                 "task %u lost its daemon around the halt; recovering its "
                 "final state from backups",
                 task);
      awaiting_final_recovery_.push_back(task);
    }
  }
  expire_stale_requests();
  request_shortfall(awaiting_final_recovery_.size());
  serve_final_recovery();
  env_->schedule(timing_.final_state_timeout, [this] { retry_final_states(); });
}

void Spawner::serve_final_recovery() {
  while (!awaiting_final_recovery_.empty() && !pool_.empty()) {
    const TaskId task = awaiting_final_recovery_.front();
    awaiting_final_recovery_.pop_front();
    const net::Stub daemon = take_from_pool();
    bind_task(task, daemon);
    send_assignment(task, daemon, /*restart=*/true, /*finalize_only=*/true);
  }
}

void Spawner::handle_final_state(const msg::FinalState& m, const net::Message&,
                                 net::Env&) {
  if (m.app_id != app_.app_id || m.task_id >= app_.task_count) return;
  if (report_.final_payloads[m.task_id].empty()) ++final_states_received_;
  report_.final_iterations[m.task_id] = m.iteration;
  report_.final_informative_iterations[m.task_id] = m.informative_iterations;
  report_.final_payloads[m.task_id] = m.payload;
  if (final_states_received_ == app_.task_count && !finished_) finish();
}

// --- Reputation & redundant execution (DESIGN.md §14) ---

net::Stub Spawner::take_from_pool() {
  std::size_t best = 0;
  if (rep_.enabled) {
    // Strict `>` keeps the earliest entry on ties, so the neutral cold start
    // degenerates to the default FIFO pick.
    for (std::size_t i = 1; i < pool_.size(); ++i) {
      if (local_rep_.score_of(pool_[i].stub.node) >
          local_rep_.score_of(pool_[best].stub.node)) {
        best = i;
      }
    }
  }
  const net::Stub stub = pool_[best].stub;
  pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(best));
  return stub;
}

void Spawner::report_reputation(std::uint64_t node, std::uint8_t kind,
                                double value) {
  if (!rep_.enabled) return;
  msg::ReputationReport report;
  report.node = node;
  report.kind = kind;
  report.value = value;
  for (const net::Stub& sp : bootstrap_addresses_) {
    rmi::invoke(*env_, sp, report);
  }
}

void Spawner::broadcast_backup_placement() {
  // Churn-aware backup placement (DESIGN.md §14): rank the task ring by the
  // reputation of each task's current daemon and push the ranking to every
  // computing daemon. Daemons checkpoint onto the top-ranked holders instead
  // of their round-robin neighbours, so backups concentrate on stable hosts.
  if (!rep_.enabled || !rep_.backup_placement || !launched_) return;
  msg::BackupPlacement placement;
  placement.app_id = app_.app_id;
  placement.version = reg_.version;
  placement.ranking.reserve(reg_.tasks.size());
  for (const TaskEntry& entry : reg_.tasks) {
    placement.ranking.push_back(entry.task_id);
  }
  std::stable_sort(placement.ranking.begin(), placement.ranking.end(),
                   [this](TaskId a, TaskId b) {
                     const net::Stub da = reg_.daemon_of(a);
                     const net::Stub db = reg_.daemon_of(b);
                     const double sa =
                         da.valid() ? local_rep_.score_of(da.node) : -1.0;
                     const double sb =
                         db.valid() ? local_rep_.score_of(db.node) : -1.0;
                     return sa > sb;
                   });
  for (const TaskEntry& entry : reg_.tasks) {
    if (entry.daemon.valid()) rmi::invoke(*env_, entry.daemon, placement);
  }
}

std::uint64_t Spawner::audit_nonce(TaskId task) const {
  // Unique per (app, audit round, task); replies echo it, so a stale reply
  // from an earlier round can never be counted as a vote.
  return (static_cast<std::uint64_t>(app_.app_id) << 32) ^
         (static_cast<std::uint64_t>(audit_round_) << 20) ^
         static_cast<std::uint64_t>(task);
}

void Spawner::start_audit() {
  if (audit_in_progress_) return;
  audit_in_progress_ = true;
  ++audit_round_;
  ++report_.audit_rounds;
  audit_votes_.clear();
  audit_sent_at_.clear();
  audit_expected_ = 0;
  audit_received_ = 0;

  // Each task's verification is re-run by `k` daemons: its own plus the next
  // k-1 on the task ring (Davtyan-style redundant execution). The challenge
  // carries the full descriptor, so a daemon can instantiate and re-run a
  // task it does not own; honest replicas produce bit-identical digests.
  const std::uint32_t k =
      std::min<std::uint32_t>(rep_.redundancy, app_.task_count);
  for (TaskId task = 0; task < app_.task_count; ++task) {
    for (std::uint32_t j = 0; j < k; ++j) {
      const TaskId responder = (task + j) % app_.task_count;
      const net::Stub daemon = reg_.daemon_of(responder);
      if (!daemon.valid()) continue;
      const auto key = std::make_pair(task, daemon.node);
      if (audit_sent_at_.count(key) != 0) continue;
      msg::AuditChallenge challenge;
      challenge.app = app_;
      challenge.task_id = task;
      challenge.round = audit_round_;
      challenge.nonce = audit_nonce(task);
      challenge.iterations = kAuditIterations;
      rmi::invoke(*env_, daemon, challenge);
      audit_sent_at_[key] = env_->now();
      ++audit_expected_;
    }
  }
  JACEPP_LOG(Info, "spawner",
             "audit round %u: %zu challenges (k=%u) at %.3f", audit_round_,
             audit_expected_, k, env_->now());
  if (audit_expected_ == 0) {
    finish_audit();
    return;
  }
  const std::uint32_t round = audit_round_;
  env_->schedule(kAuditTimeout, [this, round] {
    // Votes from daemons that died mid-audit never arrive; tally without them.
    if (audit_in_progress_ && audit_round_ == round) finish_audit();
  });
}

void Spawner::handle_audit_reply(const msg::AuditReply& m,
                                 const net::Message& raw, net::Env&) {
  if (!audit_in_progress_ || m.app_id != app_.app_id ||
      m.round != audit_round_ || m.nonce != audit_nonce(m.task_id)) {
    return;
  }
  const auto key = std::make_pair(m.task_id, raw.from.node);
  const auto sent = audit_sent_at_.find(key);
  if (sent == audit_sent_at_.end()) return;  // unsolicited or duplicate
  if (rep_.enabled) {
    // Challenge round-trips double as speed probes: they include the actual
    // (throttled) compute time of the re-run.
    const double norm = 1.0 / (1.0 + (env_->now() - sent->second));
    local_rep_.observe_speed(raw.from.node, norm);
    report_reputation(raw.from.node, msg::ReputationReport::Speed, norm);
  }
  audit_sent_at_.erase(sent);
  audit_votes_[m.task_id].push_back(AuditVote{raw.from, m.digest});
  ++audit_received_;
  if (audit_received_ == audit_expected_) finish_audit();
}

void Spawner::finish_audit() {
  audit_in_progress_ = false;
  audit_done_ = true;

  // Majority vote per task: the digest held by a strict majority of the
  // collected votes wins; every dissenting voter is flagged. A task with
  // fewer than two votes, or no strict majority, yields no verdict (never a
  // false positive — only being outvoted demotes a peer).
  std::set<std::uint64_t> flagged;
  for (const auto& [task, votes] : audit_votes_) {
    if (votes.size() < 2) continue;
    std::map<std::uint64_t, std::size_t> counts;
    for (const AuditVote& vote : votes) ++counts[vote.digest];
    std::uint64_t majority_digest = 0;
    std::size_t majority_count = 0;
    for (const auto& [digest, count] : counts) {
      if (count > majority_count) {
        majority_count = count;
        majority_digest = digest;
      }
    }
    if (2 * majority_count <= votes.size()) continue;
    for (const AuditVote& vote : votes) {
      if (vote.digest != majority_digest) flagged.insert(vote.voter.node);
    }
  }
  for (const std::uint64_t node : flagged) {
    report_.flagged_liars.push_back(node);
    local_rep_.observe_liar(node);
    report_reputation(node, msg::ReputationReport::Liar, 0.0);
    JACEPP_LOG(Info, "spawner", "audit outvoted node %llu: demoted as liar",
               static_cast<unsigned long long>(node));
  }
  audit_votes_.clear();
  audit_sent_at_.clear();
  maybe_halt();  // audit_done_ is set; the gates decide again
}

void Spawner::finish() {
  finished_ = true;
  report_.completed = halt_broadcast_;
  report_.finish_time = env_->now();
  if (on_complete_) on_complete_(report_);
  env_->shutdown_self();
}

}  // namespace jacepp::core
