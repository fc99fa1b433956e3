// RtDeployment: the same JaceP2P network as SimDeployment, but on the
// real-time threaded runtime — every entity on its own thread, real clocks,
// real concurrency. Used by the runnable examples and the threaded
// integration tests; scale is smaller than the simulator's (threads, not
// events). Every entity runs the paper's centralized control plane with
// timings shrunk for wall-clock runs (heartbeats every 50 ms, failure
// detection within ~300 ms), and every send goes straight to the
// destination's mailbox. The simulator's sharded-scheduler knobs
// (sim.shards; DESIGN.md §12) have no analogue here: entities are already
// concurrent OS threads, so there is nothing to partition.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/app.hpp"
#include "core/spawner.hpp"
#include "rt/runtime.hpp"

namespace jacepp::core {

struct RtDeploymentConfig {
  std::size_t super_peer_count = 1;
  std::size_t daemon_count = 4;
  AppDescriptor app;
  std::uint64_t seed = 42;
};

class RtDeployment {
 public:
  explicit RtDeployment(RtDeploymentConfig config);
  ~RtDeployment();

  /// Spawn all entities and launch the application.
  void start();

  /// Block until the spawner reports completion or `timeout_seconds` passes.
  /// Returns the report when the application finished in time.
  std::optional<SpawnerReport> wait(double timeout_seconds);

  /// Crash-stop a random daemon currently computing (returns false when no
  /// daemon is observably computing).
  bool disconnect_random_computing_daemon();

  /// Crash-stop a specific daemon by index in the fleet.
  void disconnect_daemon(std::size_t index);

  rt::ThreadRuntime& runtime() { return *runtime_; }
  [[nodiscard]] const std::vector<net::NodeId>& daemon_nodes() const {
    return daemon_nodes_;
  }

 private:
  RtDeploymentConfig config_;
  std::unique_ptr<rt::ThreadRuntime> runtime_;
  std::vector<net::Stub> super_peer_addresses_;
  std::vector<net::NodeId> daemon_nodes_;
  net::NodeId spawner_node_ = net::kInvalidNode;
  Rng rng_;

  std::mutex mutex_;
  std::condition_variable done_cv_;
  std::optional<SpawnerReport> report_;
};

}  // namespace jacepp::core
