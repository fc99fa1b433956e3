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

  AppMeta& meta = app_meta_[app];
  meta.last_store_tick = ++store_tick_;
  enforce_budget(app);
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
  app_meta_.erase(app);
}

void BackupStore::mark_app_finished(AppId app) {
  const auto it = app_meta_.find(app);
  if (it != app_meta_.end()) it->second.finished = true;
}

void BackupStore::set_byte_budget(std::size_t budget) {
  byte_budget_ = budget;
  enforce_budget(/*protect_app=*/0xFFFFFFFFu);
}

void BackupStore::erase_entry(
    std::unordered_map<std::uint64_t, Entry>::iterator it) {
  total_bytes_ -= it->second.bytes();
  entries_.erase(it);
}

void BackupStore::enforce_budget(AppId protect_app) {
  if (byte_budget_ == 0) return;
  while (total_bytes_ > byte_budget_) {
    // Victim: a finished app beats a live one; within a class, the app least
    // recently stored into. The app currently being stored is off limits —
    // evicting it would drop the state just stored.
    bool found = false;
    AppId victim = 0;
    bool victim_finished = false;
    std::uint64_t victim_tick = 0;
    for (const auto& [app, meta] : app_meta_) {
      if (app == protect_app) continue;
      const bool better =
          !found || (meta.finished && !victim_finished) ||
          (meta.finished == victim_finished &&
           meta.last_store_tick < victim_tick);
      if (better) {
        found = true;
        victim = app;
        victim_finished = meta.finished;
        victim_tick = meta.last_store_tick;
      }
    }
    if (!found) return;  // only the protected app remains
    clear_app(victim);
    ++evicted_apps_;
  }
}

}  // namespace jacepp::core
