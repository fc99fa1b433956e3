// The sharded simulator's round crew (sim::SimWorld::round_crew();
// DESIGN.md §12), the library's only thread pool. Linear-algebra kernels are
// serial loops and never run on it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace jacepp {

/// Persistent crew for the sharded scheduler's rounds: N-1 pinned worker
/// threads plus the caller as lane 0, woken together by an epoch broadcast
/// and joined by a countdown. It is a single-submitter barrier crew:
/// run(body) invokes body(lane) exactly once per lane — lanes 1..N-1 on the
/// workers, lane 0 inline on the caller — and returns when all lanes finish.
/// The lane -> work mapping is the caller's (SimWorld assigns shard s to lane
/// s % lanes(), which is deterministic because shard state is disjoint: which
/// thread runs a shard cannot affect any result). Keeping the threads alive
/// across rounds removes a per-round spawn/teardown at every barrier — at
/// 100k daemons the scheduler crosses that barrier tens of thousands of times
/// per simulated second.
class RoundWorkerPool {
 public:
  /// A crew of logical size `lanes` spawns `lanes - 1` workers (capped at
  /// hardware_concurrency() unless force_workers — extra lanes on an
  /// oversubscribed host only add wakeup latency, and the lane mapping is
  /// result-neutral). lanes == 0 is treated as 1: run() degenerates to a
  /// plain body(0) call on the caller, no synchronization at all.
  explicit RoundWorkerPool(std::size_t lanes, bool force_workers = false);
  ~RoundWorkerPool();

  RoundWorkerPool(const RoundWorkerPool&) = delete;
  RoundWorkerPool& operator=(const RoundWorkerPool&) = delete;

  /// Actual crew size (workers + caller lane), after the hardware cap.
  [[nodiscard]] std::size_t lanes() const { return lanes_; }

  /// Invoke body(lane) once per lane in [0, lanes()) — lane 0 on the calling
  /// thread — and block until every lane returns. Exceptions thrown by body
  /// are rethrown on the caller (first one wins) after the barrier. Not
  /// reentrant: one run() at a time (the scheduler's coordinator is the sole
  /// submitter).
  void run(const std::function<void(std::size_t)>& body);

 private:
  void worker_loop(std::size_t lane);

  std::size_t lanes_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  std::uint64_t epoch_ = 0;
  std::size_t remaining_ = 0;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::exception_ptr error_;
  bool stopping_ = false;
};

}  // namespace jacepp
