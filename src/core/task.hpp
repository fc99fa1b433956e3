// The user-facing Task API (paper §4.2: "A user application is a SPMD Java
// program which uses JaceP2P methods by extending the Task class").
//
// A jacepp application implements Task; the Daemon drives it:
//
//   init() once → repeat { iterate() → outgoing() sent to neighbours →
//   local_error() fed to convergence detection → periodic checkpoint() to
//   backup-peers } until GlobalHalt; on_data() fires whenever dependency data
//   arrives (the newest arrival wins, possibly stale — the asynchronous
//   model, paper §4).
//
// Programs are registered by name in the TaskProgramRegistry — the analogue of
// the paper's "URL of a web server where the class files are available": a
// daemon materializes the Task from the name carried in the AppDescriptor.
//
// A task keeps what it checkpoints in one wire struct (JACEPP_WIRE_FIELDS,
// serial/serial.hpp), so its layout is stated once: checkpoint() is
// serial::encode(state_), and restore() decodes with Reader::object<State>()
// and commits only a state whose shapes fit. Every save sends the whole
// state (core/checkpoint.hpp).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "core/app.hpp"
#include "serial/serial.hpp"

namespace jacepp::core {

/// Dependency data produced by an iteration, addressed by task id; the daemon
/// resolves task ids to daemon stubs through the Application Register. `tag`
/// names the update stream when one task sends several independent pieces of
/// data to the same neighbour (e.g. lower vs upper boundary lines) — the
/// link layer's latest-wins coalescing replaces superseded messages only
/// within one (app, from, to, tag) stream. The payload views bytes the
/// task owns.
struct OutgoingData {
  TaskId to_task = 0;
  serial::ByteView payload;
  std::uint32_t tag = 0;
};

class Task {
 public:
  virtual ~Task() = default;

  /// Called once before the first iteration (or before restore() on a
  /// replacement daemon). `task_id` is this task's SPMD rank. The descriptor
  /// comes from a peer, so it is untrusted: if the config does not decode or
  /// describes nothing this task can run, return false; the daemon then
  /// discards the task.
  [[nodiscard]] virtual bool init(const AppDescriptor& app, TaskId task_id) = 0;

  /// Perform one (outer) iteration of real computation using the latest
  /// received dependency data. Returns the work performed in flops — the
  /// simulator charges this against the machine's speed.
  virtual double iterate() = 0;

  /// Data to push to neighbours after the iteration that just completed.
  /// The records, and the bytes their payloads view, belong to the task and
  /// stay valid until the next iterate(); a task rewrites them in place.
  virtual std::span<const OutgoingData> outgoing() = 0;

  /// Error signal of the last iteration (relative iterate change); feeds the
  /// local convergence detector (§5.5).
  [[nodiscard]] virtual double local_error() const = 0;

  /// True when the last iterate() consumed dependency data not seen by any
  /// earlier iteration. Iterations without fresh data cannot move toward the
  /// solution (paper §7: "the next one will not make the computation progress
  /// ... since no update has been received"), so the Daemon only feeds
  /// local_error() into convergence detection when this is true — otherwise a
  /// starved task would spin to a zero update-distance and fake stability.
  [[nodiscard]] virtual bool error_is_informative() const { return true; }

  /// Dependency data received from another task. Implementations keep the
  /// newest arrival per sender, replacing whatever they held (paper §4: a
  /// peer computes with the last data it received). A sender that restarted
  /// from a checkpoint resends older iterates, which are still its freshest
  /// data, so arrival order, not the sender's progress, decides. `payload`
  /// views the received message and is valid only during the call.
  virtual void on_data(TaskId from_task, serial::ByteView payload) = 0;

  /// Serialize the full task state (the Backup object's body, §5.4).
  [[nodiscard]] virtual serial::Bytes checkpoint() const = 0;

  /// Restore from a checkpoint produced by checkpoint(). The state arrives
  /// from a backup peer, so it is untrusted: if it does not decode or does
  /// not fit the shapes init() set, return false and leave the task as it
  /// was.
  [[nodiscard]] virtual bool restore(const serial::Bytes& state) = 0;

  /// Payload reported to the Spawner after GlobalHalt (defaults to the full
  /// checkpoint; override to return just the solution slice).
  [[nodiscard]] virtual serial::Bytes final_payload() const { return checkpoint(); }

  /// How many iterations consumed fresh dependency data (the complement of
  /// the paper's "iterations without update"); reported in FinalState for
  /// the Eq. (4) diagnostics. Defaults to 0 = not tracked.
  [[nodiscard]] virtual std::uint64_t informative_iterations() const { return 0; }
};

/// Global name → factory table for task programs.
class TaskProgramRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Task>()>;

  static TaskProgramRegistry& instance();

  /// Register a program; later registrations under the same name replace
  /// earlier ones (convenient for tests).
  void register_program(const std::string& name, Factory factory);

  /// Instantiate a program; nullptr when the name is unknown.
  [[nodiscard]] std::unique_ptr<Task> create(const std::string& name) const;

  [[nodiscard]] bool contains(const std::string& name) const;

 private:
  TaskProgramRegistry() = default;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Factory> factories_;
};

/// Static-initialization helper:
///   static ProgramRegistrar reg("poisson", [] { return std::make_unique<PoissonTask>(); });
struct ProgramRegistrar {
  ProgramRegistrar(const std::string& name, TaskProgramRegistry::Factory factory) {
    TaskProgramRegistry::instance().register_program(name, std::move(factory));
  }
};

}  // namespace jacepp::core
