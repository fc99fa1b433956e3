// Free-list recycling of message-body buffers (DESIGN.md §6, §9).
//
// Every non-empty message body is one SharedBytes block: an atomic count of
// the net::Payload handles that share it, and the encoded Bytes. The pool
// recycles both halves: the Bytes' heap storage (capacity intact) goes back
// to the next encode(), and the block itself to the next Payload. So a
// message whose body fits a recycled buffer is sent and delivered without a
// call to the allocator. Checkpoint saves recycle their encoded state and
// frame through the same pool (core/daemon.cpp).
//
// Safety model: a buffer enters the pool ONLY from the last-reference drop
// of a net::Payload (or an explicit release of an owned Bytes), so a pooled
// buffer can never alias one that still has live readers — the zero-copy
// `shares_buffer_with` guarantee is untouched because recycling happens
// strictly after the block's count reaches zero.
//
// Thread safety: both runtimes release from whatever thread drops the last
// reference (rt mailbox threads, the sim's round lanes), so the shared free
// lists sit behind one mutex. In front of them each thread keeps a small
// cache that it alone touches: acquire and release hit the cache without a
// lock, and the cache trades half its contents with the shared lists when it
// runs empty or full. A cache's room is reserved out of kMaxBuffers and
// kMaxRetainedBytes when the thread first uses the pool, and caches may
// reserve at most half of each cap, so the caps bound everything retained.
// At thread exit a cache hands its buffers back and frees its reservation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serial/serial.hpp"

namespace jacepp::serial {

/// One shared message body (net::Payload): the bytes, and how many Payload
/// handles share them. Recycled by BufferPool.
struct SharedBytes {
  std::atomic<std::uint32_t> refs{0};
  Bytes bytes;
};

class BufferPool {
 public:
  /// Retained-buffer caps: beyond these, released buffers are simply freed.
  static constexpr std::size_t kMaxBuffers = 256;
  static constexpr std::size_t kMaxRetainedBytes = 8u << 20;
  /// Buffers larger than this are never retained (one-off giant payloads
  /// would otherwise pin their capacity forever).
  static constexpr std::size_t kMaxBufferBytes = 1u << 20;
  /// One thread's cache: at most this many buffers (and as many blocks) of
  /// at most this many bytes in all, reserved out of the caps above.
  static constexpr std::size_t kCacheBuffers = 16;
  static constexpr std::size_t kCacheBytes = 256u << 10;

  struct Stats {
    std::uint64_t reuses = 0;    ///< acquire() served from the free list
    std::uint64_t misses = 0;    ///< acquire() fell through to a fresh buffer
    std::uint64_t returns = 0;   ///< release() retained the buffer
    std::uint64_t dropped = 0;   ///< release() freed it (full/huge)
  };

  /// The process's pool. It is never destroyed, so a body released during
  /// static destruction still has a pool to return to.
  static BufferPool& instance();

  /// Pop a recycled buffer (cleared, capacity kept) or return a fresh one.
  [[nodiscard]] Bytes acquire();

  /// Hand a buffer's storage back. Content is discarded; only capacity is
  /// recycled. Over-cap or oversized buffers are freed instead.
  void release(Bytes&& buffer);

  /// A body block holding `bytes`, with a count of one.
  [[nodiscard]] SharedBytes* adopt(Bytes&& bytes);
  /// Recycle a block whose count has reached zero, and its buffer.
  void recycle(SharedBytes* block);

  /// Counters of the calling thread's operations and of every thread that
  /// has exited. Tests read them from the thread that did the work.
  [[nodiscard]] Stats stats() const;

  /// Buffers retained in the shared lists and the calling thread's cache.
  [[nodiscard]] std::size_t free_count() const;

  /// Drop the retained buffers of the shared lists and the calling thread's
  /// cache, and zero the counters (test/bench isolation; other threads must
  /// be idle).
  void reset();

 private:
  struct Cache;

  BufferPool() = default;

  /// The calling thread's cache; nullptr once it has been destroyed at
  /// thread exit.
  static Cache* local_cache();
  void reserve_cache(Cache& cache);
  void retire_cache(Cache& cache);
  /// Move half of `cache`'s buffers and blocks into the shared lists
  /// (caller holds no lock).
  void spill(Cache& cache);
  /// Move up to half a cache's worth of buffers into `cache`.
  void refill_buffers(Cache& cache);
  /// Move up to half a cache's worth of blocks into `cache`.
  void refill_blocks(Cache& cache);
  /// Under mutex_: retain `buffer` in the shared list if the caps allow.
  bool retain_shared(Bytes&& buffer);

  mutable std::mutex mutex_;
  std::vector<Bytes> free_;
  std::vector<SharedBytes*> blocks_;
  std::size_t retained_bytes_ = 0;
  /// Room the live thread caches hold, counted against the caps.
  std::size_t reserved_buffers_ = 0;
  std::size_t reserved_bytes_ = 0;
  /// Counters of threads without a cache, and of exited threads.
  Stats stats_;
};

}  // namespace jacepp::serial
