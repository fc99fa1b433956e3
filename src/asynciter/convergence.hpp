// Convergence-detection building blocks (paper §5.5).
//
// Local side: a peer is "locally stable" once its iterate change (relative
// error between two successive iterations) stays under a threshold for a given
// number of consecutive iterations; it reports 1/0 transitions to the spawner.
//
// Global side: the spawner holds an array of per-task states and declares
// global convergence when every cell is stable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace jacepp::asynciter {

/// Tracks one task's local stability from its per-iteration error signal.
class LocalConvergenceTracker {
 public:
  LocalConvergenceTracker(double threshold, std::size_t required_consecutive)
      : threshold_(threshold), required_(required_consecutive) {}

  /// Feed the error of the iteration that just completed. Returns the new
  /// stability state if it CHANGED (the paper sends 1/0 only on transitions),
  /// nullopt otherwise.
  std::optional<bool> update(double local_error) {
    if (local_error <= threshold_) {
      if (streak_ < required_) ++streak_;
    } else {
      streak_ = 0;
    }
    const bool now_stable = streak_ >= required_;
    if (now_stable != stable_) {
      stable_ = now_stable;
      return stable_;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool stable() const { return stable_; }
  [[nodiscard]] double threshold() const { return threshold_; }

  /// Reset after a restart from checkpoint (streak evidence is gone).
  void reset() {
    streak_ = 0;
    stable_ = false;
  }

 private:
  double threshold_;
  std::size_t required_;
  std::size_t streak_ = 0;
  bool stable_ = false;
};

/// The spawner's global state array: one cell per task, AND-reduction.
class GlobalConvergenceBoard {
 public:
  explicit GlobalConvergenceBoard(std::size_t tasks = 0) { resize(tasks); }

  void resize(std::size_t tasks) {
    states_.assign(tasks, 0);
    stable_count_ = 0;
  }

  [[nodiscard]] std::size_t task_count() const { return states_.size(); }

  void set(std::size_t task, bool stable) {
    if (task >= states_.size()) return;
    const std::uint8_t value = stable ? 1 : 0;
    if (states_[task] == value) return;
    states_[task] = value;
    stable_count_ += stable ? 1 : std::size_t(-1);
  }

  /// Mark a task unknown/unstable (e.g. its daemon was replaced).
  void invalidate(std::size_t task) { set(task, false); }

  [[nodiscard]] bool stable(std::size_t task) const {
    return task < states_.size() && states_[task] == 1;
  }

  [[nodiscard]] bool all_stable() const {
    return !states_.empty() && stable_count_ == states_.size();
  }

  [[nodiscard]] std::size_t stable_count() const { return stable_count_; }

 private:
  std::vector<std::uint8_t> states_;
  std::size_t stable_count_ = 0;
};

}  // namespace jacepp::asynciter
