// Free-list recycling of message-body buffers (DESIGN.md §9).
//
// net::make_message encodes every message body into a Bytes; a fresh one per
// message, one per neighbour per iteration for the boundary lines alone, is
// pure allocator churn. The pool keeps recently released buffers (their heap
// storage, capacity intact) and hands them back to the next Writer, so a
// body's storage is reused. A send still allocates the body's refcount block
// (net::Payload::pooled), and a boundary line also the task's own payload
// buffer, sized exactly (poisson/block_task.cpp).
//
// Safety model: a buffer enters the pool ONLY from the last-reference deleter
// of net::Payload::pooled() (or an explicit release of an owned Bytes), so a
// pooled buffer can never alias one that still has live readers — the
// zero-copy `shares_buffer_with` guarantee is untouched because recycling
// happens strictly after the shared_ptr control block hits zero.
//
// Thread safety: one mutex around the free list. Both runtimes release from
// whatever thread drops the last reference (rt mailbox threads, the sim event
// loop), so the lock is mandatory; the critical section is a vector
// push/pop.
#pragma once

#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "serial/serial.hpp"

namespace jacepp::serial {

class BufferPool {
 public:
  /// Retained-buffer caps: beyond these, released buffers are simply freed.
  static constexpr std::size_t kMaxBuffers = 256;
  static constexpr std::size_t kMaxRetainedBytes = 8u << 20;
  /// Buffers larger than this are never retained (one-off giant payloads
  /// would otherwise pin their capacity forever).
  static constexpr std::size_t kMaxBufferBytes = 1u << 20;

  struct Stats {
    std::uint64_t reuses = 0;    ///< acquire() served from the free list
    std::uint64_t misses = 0;    ///< acquire() fell through to a fresh buffer
    std::uint64_t returns = 0;   ///< release() retained the buffer
    std::uint64_t dropped = 0;   ///< release() freed it (full/huge)
  };

  static BufferPool& instance() {
    static BufferPool pool;
    return pool;
  }

  /// Pop a recycled buffer (cleared, capacity kept) or return a fresh one.
  [[nodiscard]] Bytes acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        Bytes buffer = std::move(free_.back());
        free_.pop_back();
        retained_bytes_ -= buffer.capacity();
        ++stats_.reuses;
        buffer.clear();
        return buffer;
      }
      ++stats_.misses;
    }
    return Bytes{};
  }

  /// Hand a buffer's storage back. Content is discarded; only capacity is
  /// recycled. Over-cap or oversized buffers are freed instead.
  void release(Bytes&& buffer) {
    const std::size_t cap = buffer.capacity();
    if (cap == 0) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (cap <= kMaxBufferBytes && free_.size() < kMaxBuffers &&
          retained_bytes_ + cap <= kMaxRetainedBytes) {
        buffer.clear();
        retained_bytes_ += cap;
        free_.push_back(std::move(buffer));
        ++stats_.returns;
        return;
      }
      ++stats_.dropped;
    }
    Bytes discard = std::move(buffer);  // free outside the lock
  }

  [[nodiscard]] Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  [[nodiscard]] std::size_t free_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return free_.size();
  }

  /// Drop retained buffers and zero the counters (test/bench isolation).
  void reset() {
    std::vector<Bytes> discard;
    std::lock_guard<std::mutex> lock(mutex_);
    discard.swap(free_);
    retained_bytes_ = 0;
    stats_ = Stats{};
  }

 private:
  BufferPool() = default;

  mutable std::mutex mutex_;
  std::vector<Bytes> free_;
  std::size_t retained_bytes_ = 0;
  Stats stats_;
};

}  // namespace jacepp::serial
