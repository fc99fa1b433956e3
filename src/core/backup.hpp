// The Backup store each Daemon hosts for its neighbours (paper §5.4): per
// (application, task) it holds the newest iteration's state that arrived in
// a checkpoint frame (core/checkpoint.hpp), and hands it to a replacement
// daemon after checking the state's CRC.
//
// Memory is bounded: an optional byte budget evicts whole applications,
// oldest finished apps first, then the most stale (least recently stored)
// ones — never the application a frame is currently being stored for.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "core/app.hpp"
#include "core/checkpoint.hpp"
#include "serial/serial.hpp"

namespace jacepp::core {

class BackupStore {
 public:
  /// The newest state held for one task. `iteration` is the iteration of
  /// its frame — what the restore protocol compares across holders.
  struct Entry {
    std::uint64_t iteration = 0;
    std::uint32_t state_checksum = 0;  ///< CRC-32 the frame declared
    serial::Bytes state;

    [[nodiscard]] std::size_t bytes() const { return state.size(); }
  };

  struct StoreResult {
    bool accepted = false;  ///< the frame's state is now the one held
    bool needs_full = false;  ///< the frame did not decode
  };

  /// Ingest one checkpoint frame. Its state replaces the held one unless the
  /// held one is of a later iteration; a frame that does not decode leaves
  /// the held state untouched.
  StoreResult store_frame(AppId app, TaskId task, std::uint64_t iteration,
                          const serial::Bytes& frame);

  /// State held for (app, task); nullptr when none.
  [[nodiscard]] const Entry* find(AppId app, TaskId task) const;

  /// A copy of the held state once its CRC matches the checksum its frame
  /// declared. A state that fails the check is dropped (so later queries
  /// report it unavailable) and nullopt returned.
  std::optional<serial::Bytes> materialize(AppId app, TaskId task);

  /// Drop all checkpoints of a finished application.
  void clear_app(AppId app);

  /// Mark an application finished: it becomes the preferred eviction victim
  /// when the byte budget is exceeded.
  void mark_app_finished(AppId app);

  /// Cap the store's total bytes; 0 = unbounded. Enforced on every store by
  /// evicting whole applications (finished first, then least recently
  /// stored).
  void set_byte_budget(std::size_t budget);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t bytes() const { return total_bytes_; }
  [[nodiscard]] std::uint64_t evicted_apps() const { return evicted_apps_; }

 private:
  struct AppMeta {
    std::uint64_t last_store_tick = 0;
    bool finished = false;
  };

  static std::uint64_t key(AppId app, TaskId task) {
    return static_cast<std::uint64_t>(app) << 32 | task;
  }

  void erase_entry(std::unordered_map<std::uint64_t, Entry>::iterator it);
  void enforce_budget(AppId protect_app);

  std::unordered_map<std::uint64_t, Entry> entries_;
  std::unordered_map<AppId, AppMeta> app_meta_;
  std::size_t total_bytes_ = 0;
  std::size_t byte_budget_ = 0;
  std::uint64_t store_tick_ = 0;
  std::uint64_t evicted_apps_ = 0;
};

}  // namespace jacepp::core
