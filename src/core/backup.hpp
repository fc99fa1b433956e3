// The Backup store each Daemon hosts for its neighbours (paper §5.4): per
// (application, task) it holds the newest iteration's state that arrived in
// a checkpoint frame (core/checkpoint.hpp), and hands it to a replacement
// daemon after checking the state's CRC.
//
// It holds one state per task of the apps its daemon backs up; the daemon
// clears a finished app's states Daemon::kBackupRetention after the halt.
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

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t bytes() const { return total_bytes_; }

 private:
  static std::uint64_t key(AppId app, TaskId task) {
    return static_cast<std::uint64_t>(app) << 32 | task;
  }

  void erase_entry(std::unordered_map<std::uint64_t, Entry>::iterator it);

  std::unordered_map<std::uint64_t, Entry> entries_;
  std::size_t total_bytes_ = 0;
};

}  // namespace jacepp::core
