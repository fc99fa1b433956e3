// Real-time threaded runtime: each entity runs on its own thread with a
// mailbox, real (steady-clock) time and real compute cost. The same Actor
// code that runs in the simulator runs here unmodified — this is jacepp's
// equivalent of the paper's multi-threaded JVM entities.
//
// Threading contract: an actor's on_start/on_message/timer callbacks all run
// on its own worker thread, and Env methods may only be called from that
// thread (exactly the actor model). Cross-entity interaction happens only via
// messages routed through a mutex-protected bus.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/env.hpp"
#include "net/message.hpp"
#include "net/stub.hpp"
#include "support/queue.hpp"
#include "support/rng.hpp"

namespace jacepp::rt {

struct RtStats {
  std::atomic<std::uint64_t> sent{0};       ///< frames handed to the router
  std::atomic<std::uint64_t> delivered{0};  ///< frames that reached a mailbox
  std::atomic<std::uint64_t> lost{0};
};

class ThreadRuntime {
 public:
  /// Every send goes straight to the destination's mailbox, which is FIFO:
  /// the messages one sender sends one receiver arrive in send order.
  explicit ThreadRuntime(std::uint64_t seed = 42);
  ~ThreadRuntime();

  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  /// Spawn an entity on its own thread; on_start runs asynchronously.
  net::Stub add_node(std::unique_ptr<net::Actor> actor, net::EntityKind kind);

  /// Crash-stop a node: its thread exits without on_stop, and all messages to
  /// it are lost from now on.
  void disconnect(net::NodeId node);

  [[nodiscard]] bool is_up(net::NodeId node) const;

  /// Seconds since the runtime started (the Env::now() time base).
  [[nodiscard]] double now() const;

  /// Inject a message from outside any actor (test harness use).
  void post(const net::Stub& to, net::Message message);

  /// Block until the given node's thread exits (graceful or crash), or the
  /// timeout (seconds) elapses. Returns true if it exited.
  bool wait_node(net::NodeId node, double timeout_seconds);

  /// Gracefully stop every still-running node (on_stop runs) and join.
  void shutdown_all();

  /// Access an actor after its thread has exited (result extraction).
  [[nodiscard]] net::Actor* actor(net::NodeId node);

  RtStats& stats() { return stats_; }

 private:
  class WorkerEnv;

  struct Timer {
    std::chrono::steady_clock::time_point deadline;
    net::TimerId id;
    std::function<void()> fn;

    bool operator>(const Timer& other) const { return deadline > other.deadline; }
  };

  struct Command {
    enum class Kind { Deliver, Stop, Kill } kind;
    net::Message message;  // for Deliver
  };

  struct Worker {
    std::unique_ptr<net::Actor> actor;
    std::unique_ptr<WorkerEnv> env;
    BlockingQueue<Command> mailbox;
    std::thread thread;
    net::Stub stub;
    std::atomic<bool> up{true};
    std::atomic<bool> exited{false};
    Rng rng{0};
    // Timer state touched only by the worker thread.
    std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers;
    std::vector<net::TimerId> cancelled;
    bool stop_requested = false;
    bool crashed = false;
  };

  void worker_loop(Worker* worker);
  void route(const net::Stub& to, net::Message message);
  Worker* find_worker(net::NodeId node);

  std::chrono::steady_clock::time_point epoch_;
  Rng seed_rng_;
  std::atomic<net::NodeId> next_node_{1};
  std::atomic<net::TimerId> next_timer_{1};
  mutable std::mutex registry_mutex_;
  std::unordered_map<net::NodeId, std::unique_ptr<Worker>> workers_;
  // Shared by every worker's exit notification; wait_node blocks here instead
  // of polling, so shutdown latency is wakeup-bound, not sleep-quantum-bound.
  std::mutex exit_mutex_;
  std::condition_variable exit_cv_;
  RtStats stats_;
};

}  // namespace jacepp::rt
