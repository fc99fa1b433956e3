// Application descriptors and registers.
//
// * AppDescriptor — what the paper's Spawner user supplies: where the code
//   lives (here: a registered program name instead of a class-file URL),
//   how many computing nodes, and the application arguments (a serialized
//   config blob), plus the checkpoint and convergence policy.
// * AppRegister — the paper's "Application Register": the task→daemon mapping
//   for one application, versioned so stale broadcasts are ignored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/stub.hpp"
#include "serial/serial.hpp"

namespace jacepp::core {

using TaskId = std::uint32_t;
using AppId = std::uint32_t;

struct AppDescriptor {
  AppId app_id = 0;
  /// Registered program name — the analogue of the paper's "URL of a web
  /// server where the class files are available": daemons instantiate the
  /// Task from this name via the TaskProgramRegistry.
  std::string program;
  /// Program-specific arguments (the paper's "optional arguments").
  serial::Bytes config;
  std::uint32_t task_count = 0;

  // Fault-tolerance policy (paper §5.4 / §7).
  std::uint32_t checkpoint_every = 5;    ///< jaceSave frequency, in iterations
  std::uint32_t backup_peer_count = 20;  ///< backup-peers per task

  // Convergence policy (paper §5.5).
  double convergence_threshold = 1e-8;
  std::uint32_t stable_iterations_required = 3;

  JACEPP_WIRE_FIELDS(app_id, program, config, task_count, checkpoint_every,
                     backup_peer_count, convergence_threshold,
                     stable_iterations_required)
};

/// One task slot in the Application Register.
struct TaskEntry {
  TaskId task_id = 0;
  net::Stub daemon;

  JACEPP_WIRE_FIELDS(task_id, daemon)
};

/// Versioned task→daemon mapping, broadcast by the Spawner on every change.
struct AppRegister {
  AppId app_id = 0;
  std::uint64_t version = 0;
  net::Stub spawner;
  std::vector<TaskEntry> tasks;  ///< sorted by task_id, one entry per task

  /// The entry of `task`, or nullptr. Every register a spawner builds holds
  /// task t at index t, so that slot is tried first; a register from a peer
  /// that is out of order or has gaps still resolves by a scan.
  [[nodiscard]] const TaskEntry* find(TaskId task) const {
    if (task < tasks.size() && tasks[task].task_id == task) return &tasks[task];
    for (const auto& e : tasks) {
      if (e.task_id == task) return &e;
    }
    return nullptr;
  }

  /// Stub of the daemon currently running `task` (invalid stub if none).
  [[nodiscard]] net::Stub daemon_of(TaskId task) const {
    const TaskEntry* e = find(task);
    return e != nullptr ? e->daemon : net::Stub{};
  }

  JACEPP_WIRE_FIELDS(app_id, version, spawner, tasks)
};

/// Round-robin backup-peer policy (paper §5.4): the backup peers of task t are
/// the `count` nearest other tasks by task-id distance (alternating right and
/// left, wrapping), and the save of iteration-index `save_seq` goes to
/// backup_peers[save_seq % count].
std::vector<TaskId> backup_peers_of(TaskId task, std::uint32_t task_count,
                                    std::uint32_t backup_peer_count);

}  // namespace jacepp::core
