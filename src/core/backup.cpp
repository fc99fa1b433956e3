#include "core/backup.hpp"

#include "serial/buffer_pool.hpp"
#include "serial/checksum.hpp"

namespace jacepp::core {

BackupStore::StoreResult BackupStore::store_frame(AppId app, TaskId task,
                                                  std::uint64_t iteration,
                                                  const serial::Bytes& frame) {
  auto decoded = checkpoint::decode_frame(frame);
  if (!decoded.has_value()) return {false, true};

  auto [it, inserted] = entries_.try_emplace(key(app, task));
  Entry& entry = it->second;
  // A reordered older save never replaces a newer state.
  if (!inserted && iteration < entry.iteration) return {false, false};
  // The held entry is assigned in place; the state it held goes back to
  // the pool for the next frame's decode.
  total_bytes_ -= entry.bytes();
  serial::BufferPool::instance().release(std::move(entry.state));
  entry.iteration = iteration;
  entry.state_checksum = decoded->state_checksum;
  entry.state = std::move(decoded->full_state);
  total_bytes_ += entry.bytes();
  return {true, false};
}

const BackupStore::Entry* BackupStore::find(AppId app, TaskId task) const {
  const auto it = entries_.find(key(app, task));
  return it == entries_.end() ? nullptr : &it->second;
}

std::optional<serial::Bytes> BackupStore::materialize(AppId app, TaskId task) {
  const auto it = entries_.find(key(app, task));
  if (it == entries_.end()) return std::nullopt;
  if (serial::crc32(it->second.state) != it->second.state_checksum) {
    // Damaged since it arrived: drop it so QueryBackup reports unavailable
    // and the replacement daemon falls back to another holder (or
    // iteration 0).
    erase_entry(it);
    return std::nullopt;
  }
  return it->second.state;
}

void BackupStore::clear_app(AppId app) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (static_cast<AppId>(it->first >> 32) == app) {
      total_bytes_ -= it->second.bytes();
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void BackupStore::erase_entry(
    std::unordered_map<std::uint64_t, Entry>::iterator it) {
  total_bytes_ -= it->second.bytes();
  entries_.erase(it);
}

}  // namespace jacepp::core
