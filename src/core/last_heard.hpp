// Last-heard index for heartbeat failure detection (DESIGN.md §13): every
// key with the time it was last heard from, kept in touch order. Touch times
// never decrease, so touch order is also time order: the front is always the
// key heard from longest ago, and a sweep pops expired keys off the front
// without looking at anyone still alive.
//
// Costs: `touch`, `refresh`, `erase` and `contains` are one hash lookup plus
// O(1) list splicing; `expire` is O(expired). A super-peer receives one
// heartbeat per registered daemon per period, so the per-heartbeat cost is
// the one that scales.
//
// Keys touched at the same time expire in touch order. The super-peer's
// expire callback sends no message, so that order is not observable by the
// protocol (the §13 goldens pin this).
#pragma once

#include <cstddef>
#include <limits>
#include <list>
#include <unordered_map>

#include "support/assert.hpp"

namespace jacepp::core {

template <typename Key>
class LastHeardIndex {
 public:
  /// Insert `key` heard at `now`, or move it to the back with the new time.
  /// Precondition: `now` is not earlier than any previous touch.
  void touch(const Key& key, double now) {
    advance(now);
    auto [it, inserted] = index_.try_emplace(key);
    if (inserted) {
      it->second = order_.insert(order_.end(), Entry{key, now});
    } else {
      move_to_back(it->second, now);
    }
  }

  /// `touch` for a key that is already present; returns false and changes
  /// nothing when `key` is absent. One hash lookup either way.
  bool refresh(const Key& key, double now) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    advance(now);
    move_to_back(it->second, now);
    return true;
  }

  /// Forget `key`. No-op when absent.
  void erase(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    order_.erase(it->second);
    index_.erase(it);
  }

  [[nodiscard]] bool contains(const Key& key) const {
    return index_.count(key) != 0;
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }

  /// Pop every key last heard strictly before `cutoff`, oldest first, and
  /// call `fn(key)` for it. The key is erased first, so `fn` may touch it
  /// again (at a time not before `cutoff`, or it expires again). Returns the
  /// number of expirations.
  template <typename Fn>
  std::size_t expire(double cutoff, Fn&& fn) {
    std::size_t expired = 0;
    while (!order_.empty() && order_.front().heard < cutoff) {
      const Key key = order_.front().key;
      index_.erase(key);
      order_.pop_front();
      fn(key);
      ++expired;
    }
    return expired;
  }

 private:
  struct Entry {
    Key key;
    double heard = 0.0;
  };
  using Position = typename std::list<Entry>::iterator;

  void advance(double now) {
    JACEPP_CHECK(now >= latest_,
                 "LastHeardIndex: touch time precedes the previous touch");
    latest_ = now;
  }

  void move_to_back(Position pos, double now) {
    pos->heard = now;
    order_.splice(order_.end(), order_, pos);
  }

  std::list<Entry> order_;  ///< touch order, so nondecreasing `heard`
  std::unordered_map<Key, Position> index_;
  double latest_ = -std::numeric_limits<double>::infinity();
};

}  // namespace jacepp::core
