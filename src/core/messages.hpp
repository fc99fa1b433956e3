// Every protocol message exchanged between JaceP2P entities. Each struct is a
// "remote method" in the rmi:: sense: a unique type tag plus a field list
// (serial/serial.hpp) whose order is the wire order. Section references are
// to the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "core/app.hpp"
#include "core/config.hpp"
#include "net/link.hpp"
#include "net/message.hpp"
#include "net/stub.hpp"
#include "serial/serial.hpp"

namespace jacepp::core::msg {

// ---------------------------------------------------------------------------
// Bootstrapping & registration (§5.1)
// ---------------------------------------------------------------------------

/// Daemon → Super-Peer: "index my stub in your Register."
struct RegisterDaemon {
  static constexpr net::MessageType kType = 1;
  net::Stub daemon;

  JACEPP_WIRE_FIELDS(daemon)
};

/// Super-Peer → Daemon: registration accepted; carries the SP's full stub so
/// all later traffic stops using the bootstrap address.
struct RegisterAck {
  static constexpr net::MessageType kType = 2;
  net::Stub super_peer;

  JACEPP_WIRE_FIELDS(super_peer)
};

/// Harness → Super-Peer: the linked super-peer overlay (§2.2 hybrid topology).
struct LinkSuperPeers {
  static constexpr net::MessageType kType = 3;
  std::vector<net::Stub> peers;

  JACEPP_WIRE_FIELDS(peers)
};

// ---------------------------------------------------------------------------
// Heartbeats & failure detection (§5.3)
// ---------------------------------------------------------------------------

/// Daemon → Super-Peer (while idle) or Daemon → Spawner (while computing):
/// periodic liveness signal.
struct Heartbeat {
  static constexpr net::MessageType kType = 4;
  JACEPP_WIRE_FIELDS()
};

/// Super-Peer → Daemon: heartbeat acknowledgement; its absence is how a
/// daemon detects that its super-peer died and must re-bootstrap.
struct HeartbeatAck {
  static constexpr net::MessageType kType = 5;
  JACEPP_WIRE_FIELDS()
};

// ---------------------------------------------------------------------------
// Reservation (§5.2, Figure 2)
// ---------------------------------------------------------------------------

/// Spawner → Super-Peer (and Super-Peer → linked Super-Peer when forwarding):
/// reserve `count` daemons for `requester`.
struct ReserveRequest {
  static constexpr net::MessageType kType = 6;
  std::uint32_t request_id = 0;
  std::uint32_t count = 0;
  net::Stub requester;
  /// Super-peers already visited, to terminate forwarding loops.
  std::vector<net::Stub> visited;

  JACEPP_WIRE_FIELDS(request_id, count, requester, visited)
};

/// Super-Peer → requester: daemons reserved (possibly fewer than asked; the
/// shortfall was forwarded or nothing was left anywhere).
struct ReserveReply {
  static constexpr net::MessageType kType = 7;
  std::uint32_t request_id = 0;
  std::vector<net::Stub> daemons;
  /// True when no super-peer in the overlay could serve the remainder.
  bool exhausted = false;

  JACEPP_WIRE_FIELDS(request_id, daemons, exhausted)
};

/// Super-Peer → Daemon: you are reserved by this spawner; expect a task.
/// The daemon learns its spawner from the assignment's register, so it does
/// not read `spawner`.
struct Reserved {
  static constexpr net::MessageType kType = 8;
  net::Stub spawner;

  JACEPP_WIRE_FIELDS(spawner)
};

// ---------------------------------------------------------------------------
// Launch & register broadcast (§5.2, Figure 3/4)
// ---------------------------------------------------------------------------

/// Spawner → Daemon: run task `task_id` of this application. `restart` marks
/// a replacement daemon that must first look for Backups (§5.4).
struct TaskAssignment {
  static constexpr net::MessageType kType = 9;
  AppDescriptor app;
  TaskId task_id = 0;
  AppRegister reg;
  bool restart = false;
  /// Post-halt result recovery: restore the task from its surviving Backups,
  /// send FinalState, and return to the pool — do not iterate. Used when the
  /// task's daemon died in the window between reporting stable and the halt.
  bool finalize_only = false;

  JACEPP_WIRE_FIELDS(app, task_id, reg, restart, finalize_only)
};

/// Spawner → all computing Daemons: updated Application Register after a
/// replacement (Figure 4(b)). Daemons ignore versions older than what they
/// already hold.
struct RegisterUpdate {
  static constexpr net::MessageType kType = 10;
  AppRegister reg;

  JACEPP_WIRE_FIELDS(reg)
};

// ---------------------------------------------------------------------------
// Inter-task data exchange (the computing dependencies)
// ---------------------------------------------------------------------------

/// Daemon → Daemon: one task's dependency data for another task (latest-wins
/// by `iteration` on the receiving side; lost messages are tolerated). `tag`
/// distinguishes independent update streams between the same task pair (a
/// Poisson task sends its lower and upper boundary lines as separate
/// streams): the link layer coalesces per (app, from, to, tag), never across
/// tags. The four stream-key fields lead the encoding so a classifier can
/// peek them without touching the payload. The payload is a view: on the
/// sender into the task's own line buffer, on the receiver into the message
/// body it was decoded from, so a line is copied once, into the body.
struct TaskData {
  static constexpr net::MessageType kType = 11;
  AppId app_id = 0;
  TaskId from_task = 0;
  TaskId to_task = 0;
  std::uint32_t tag = 0;
  std::uint64_t iteration = 0;
  serial::ByteView payload;

  JACEPP_WIRE_FIELDS(app_id, from_task, to_task, tag, iteration, payload)
};

// ---------------------------------------------------------------------------
// Checkpointing / Backups (§5.4, Figures 5 & 6)
// ---------------------------------------------------------------------------

/// Daemon → backup-peer Daemon: store this local checkpoint (replaces any
/// older checkpoint held here for the same task). `state` is the checkpoint
/// frame, viewed like TaskData's payload: on the sender in the encoded
/// frame, on the holder in the message body.
struct SaveBackup {
  static constexpr net::MessageType kType = 12;
  AppId app_id = 0;
  TaskId task_id = 0;
  std::uint64_t iteration = 0;
  serial::ByteView state;

  JACEPP_WIRE_FIELDS(app_id, task_id, iteration, state)
};

/// Replacement Daemon → potential backup-peer: which iteration (if any) do
/// you hold for this task?
struct QueryBackup {
  static constexpr net::MessageType kType = 13;
  AppId app_id = 0;
  TaskId task_id = 0;

  JACEPP_WIRE_FIELDS(app_id, task_id)
};

/// Backup-peer → replacement Daemon: checkpoint availability.
struct BackupInfo {
  static constexpr net::MessageType kType = 14;
  AppId app_id = 0;
  TaskId task_id = 0;
  bool available = false;
  std::uint64_t iteration = 0;

  JACEPP_WIRE_FIELDS(app_id, task_id, available, iteration)
};

/// Replacement Daemon → chosen backup-peer: send me the checkpoint bytes.
struct FetchBackup {
  static constexpr net::MessageType kType = 15;
  AppId app_id = 0;
  TaskId task_id = 0;

  JACEPP_WIRE_FIELDS(app_id, task_id)
};

/// Backup-peer → replacement Daemon: the checkpoint itself.
struct BackupData {
  static constexpr net::MessageType kType = 16;
  AppId app_id = 0;
  TaskId task_id = 0;
  std::uint64_t iteration = 0;
  serial::Bytes state;

  JACEPP_WIRE_FIELDS(app_id, task_id, iteration, state)
};

// ---------------------------------------------------------------------------
// Convergence detection & halt (§5.5)
// ---------------------------------------------------------------------------

/// Daemon → Spawner: local state transition (1 = stable, 0 = unstable).
struct LocalStateReport {
  static constexpr net::MessageType kType = 17;
  AppId app_id = 0;
  TaskId task_id = 0;
  bool stable = false;
  std::uint64_t iteration = 0;

  JACEPP_WIRE_FIELDS(app_id, task_id, stable, iteration)
};

/// Spawner → all Daemons: global convergence reached; stop computing.
struct GlobalHalt {
  static constexpr net::MessageType kType = 18;
  AppId app_id = 0;

  JACEPP_WIRE_FIELDS(app_id)
};

/// Daemon → Spawner: final task state after halt (lets the user's harness
/// assemble the global solution).
struct FinalState {
  static constexpr net::MessageType kType = 19;
  AppId app_id = 0;
  TaskId task_id = 0;
  std::uint64_t iteration = 0;
  std::uint64_t informative_iterations = 0;  ///< iterations with fresh data
  serial::Bytes payload;

  JACEPP_WIRE_FIELDS(app_id, task_id, iteration, informative_iterations,
                     payload)
};

// ---------------------------------------------------------------------------
// Decentralized control plane (DESIGN.md §13)
// ---------------------------------------------------------------------------

/// Spawner → Super-Peer: store this Application Register replica (keep the
/// highest version per app). Sent to the first two super-peers on every
/// version change so a standby spawner can adopt the application after the
/// primary dies.
struct AppRegisterReplica {
  static constexpr net::MessageType kType = 21;
  AppRegister reg;

  JACEPP_WIRE_FIELDS(reg)
};

/// Standby Spawner → Super-Peer: send me your replica of this app's register.
struct FetchAppRegister {
  static constexpr net::MessageType kType = 22;
  AppId app_id = 0;

  JACEPP_WIRE_FIELDS(app_id)
};

/// Super-Peer → standby Spawner: the replica (or "none held").
struct AppRegisterSnapshot {
  static constexpr net::MessageType kType = 23;
  bool available = false;
  AppRegister reg;

  JACEPP_WIRE_FIELDS(available, reg)
};

// Type ids 24 and 25 are retired (a diffusion-wave convergence detector's
// token and verdict): a peer on an older build may still send them, and no
// other message may decode them.

/// Spawner → Daemon: re-report your current local stability (sent by a
/// standby spawner after adopting an application, to rebuild the centralized
/// convergence board that died with the primary).
struct StateProbe {
  static constexpr net::MessageType kType = 26;
  AppId app_id = 0;

  JACEPP_WIRE_FIELDS(app_id)
};

// ---------------------------------------------------------------------------
// Reputation & redundant-execution verification (DESIGN.md §14)
// ---------------------------------------------------------------------------

/// Spawner → Daemon (only with `rep.redundancy >= 2`): re-run `iterations`
/// iterations of `task_id` from its initial state — a pure function of the
/// descriptor, so every honest replica computes the same digest — and reply
/// with an AuditReply. Carries the full descriptor so replicas that never ran
/// the task can instantiate it.
struct AuditChallenge {
  static constexpr net::MessageType kType = 27;
  AppDescriptor app;
  TaskId task_id = 0;
  std::uint32_t round = 0;   ///< verification round this vote belongs to
  std::uint64_t nonce = 0;   ///< echoed in the reply; stale replies are dropped
  std::uint32_t iterations = 0;

  JACEPP_WIRE_FIELDS(app, task_id, round, nonce, iterations)
};

/// Daemon → Spawner: digest of the audited re-run (the replica's vote).
struct AuditReply {
  static constexpr net::MessageType kType = 28;
  AppId app_id = 0;
  TaskId task_id = 0;
  std::uint32_t round = 0;
  std::uint64_t nonce = 0;
  std::uint64_t digest = 0;  ///< FNV-1a over the post-run checkpoint bytes

  JACEPP_WIRE_FIELDS(app_id, task_id, round, nonce, digest)
};

/// Spawner → Super-Peers (only with `rep.enabled`): one reputation
/// observation about a daemon node, folded into the super-peer's score store
/// so reservation grants learn from spawner-side evidence (failures,
/// completion latencies, voting outcomes).
struct ReputationReport {
  static constexpr net::MessageType kType = 29;
  enum Kind : std::uint8_t { Success = 0, Failure = 1, Liar = 2, Speed = 3 };
  std::uint64_t node = 0;  ///< subject daemon's NodeId
  std::uint8_t kind = Success;
  double value = 0.0;      ///< Speed: normalized latency score in [0, 1]

  JACEPP_WIRE_FIELDS(node, kind, value)
};

/// Spawner → computing Daemons (only with `rep.backup_placement`): tasks
/// ranked by their daemon's reputation, best first. A daemon derives its
/// backup peers from the top of this ranking (excluding itself) instead of
/// the round-robin neighbours, steering checkpoints toward reliable hosts.
struct BackupPlacement {
  static constexpr net::MessageType kType = 30;
  AppId app_id = 0;
  std::uint64_t version = 0;  ///< stale rankings (older broadcasts) are ignored
  std::vector<TaskId> ranking;

  JACEPP_WIRE_FIELDS(app_id, version, ranking)
};

// ---------------------------------------------------------------------------
// Delivery classes (net/link.hpp; DESIGN.md §8)
// ---------------------------------------------------------------------------

/// The Data-vs-Control split for the whole catalogue. Only TaskData is Data:
/// the asynchronous model makes a superseded halo update equivalent to an
/// ordinary lost message. Everything else is Control — including SaveBackup,
/// because Data may be dropped under backpressure, and a dropped save leaves
/// its holder a round behind (or empty) when a replacement daemon needs it,
/// and LocalStateReport, whose 1/0 *transitions* must all reach the
/// convergence board (§5.5).
constexpr net::DeliveryClass delivery_class_of(net::MessageType type) {
  return type == TaskData::kType ? net::DeliveryClass::Data
                                 : net::DeliveryClass::Control;
}

/// The canonical link classifier. Peeks TaskData's leading stream-key fields
/// (app, from_task, to_task, tag — four fixed u32s) without decoding the
/// payload. A TaskData too short to carry them is classified Control, which
/// is always safe (never coalesced, never dropped).
inline net::Classification classify_for_link(const net::Message& m) {
  if (delivery_class_of(m.type) != net::DeliveryClass::Data) return {};
  serial::Reader r(m.body.bytes());
  const std::uint32_t app = r.u32();
  const std::uint32_t from_task = r.u32();
  const std::uint32_t to_task = r.u32();
  const std::uint32_t tag = r.u32();
  if (!r.ok()) return {};
  return net::Classification{
      net::DeliveryClass::Data,
      (static_cast<std::uint64_t>(app) << 32) | from_task,
      (static_cast<std::uint64_t>(to_task) << 32) | tag};
}

/// CommConfig (user knobs, core/config.hpp) -> LinkConfig (net mechanism)
/// with the canonical classifier installed.
inline net::LinkConfig link_config_from(const CommConfig& comm) {
  net::LinkConfig lc;
  lc.classifier = &classify_for_link;
  lc.coalesce = comm.coalesce;
  lc.flush_window = comm.flush_window;
  return lc;
}

}  // namespace jacepp::core::msg
