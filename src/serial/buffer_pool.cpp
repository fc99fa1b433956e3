#include "serial/buffer_pool.hpp"

#include <utility>

namespace jacepp::serial {

namespace {
/// Set when the calling thread's cache has been destroyed (thread exit):
/// later pool calls from that thread use the shared lists. Trivially
/// destructible, so it stays readable to the end of the thread.
thread_local bool tls_cache_gone = false;
}  // namespace

struct BufferPool::Cache {
  Cache() {
    buffers.reserve(kCacheBuffers);
    blocks.reserve(kCacheBuffers);
    BufferPool::instance().reserve_cache(*this);
  }
  ~Cache() {
    BufferPool::instance().retire_cache(*this);
    tls_cache_gone = true;
  }
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  std::vector<Bytes> buffers;  ///< cleared, capacity kept
  std::size_t bytes = 0;       ///< capacity of `buffers`
  std::vector<SharedBytes*> blocks;
  Stats stats;
  /// Holds kCacheBuffers / kCacheBytes of the caps. A thread that could not
  /// reserve them uses the shared lists for every call.
  bool reserved = false;
};

Bytes recycled_buffer() { return BufferPool::instance().acquire(); }

BufferPool& BufferPool::instance() {
  static BufferPool* const pool = new BufferPool();
  return *pool;
}

BufferPool::Cache* BufferPool::local_cache() {
  if (tls_cache_gone) return nullptr;
  thread_local Cache cache;
  return &cache;
}

void BufferPool::reserve_cache(Cache& cache) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t buffers = reserved_buffers_ + kCacheBuffers;
  const std::size_t bytes = reserved_bytes_ + kCacheBytes;
  if (buffers <= kMaxBuffers / 2 && bytes <= kMaxRetainedBytes / 2 &&
      free_.size() + buffers <= kMaxBuffers &&
      retained_bytes_ + bytes <= kMaxRetainedBytes) {
    reserved_buffers_ = buffers;
    reserved_bytes_ = bytes;
    cache.reserved = true;
  }
}

void BufferPool::retire_cache(Cache& cache) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (cache.reserved) {
    reserved_buffers_ -= kCacheBuffers;
    reserved_bytes_ -= kCacheBytes;
  }
  // A buffer the shared list cannot take is freed by the clear() below.
  for (Bytes& buffer : cache.buffers) retain_shared(std::move(buffer));
  for (SharedBytes* block : cache.blocks) {
    if (blocks_.size() < kMaxBuffers) {
      blocks_.push_back(block);
    } else {
      delete block;
    }
  }
  cache.buffers.clear();
  cache.blocks.clear();
  cache.bytes = 0;
  stats_.reuses += cache.stats.reuses;
  stats_.misses += cache.stats.misses;
  stats_.returns += cache.stats.returns;
  stats_.dropped += cache.stats.dropped;
}

bool BufferPool::retain_shared(Bytes&& buffer) {
  const std::size_t cap = buffer.capacity();
  if (cap > kMaxBufferBytes ||
      free_.size() + reserved_buffers_ >= kMaxBuffers ||
      retained_bytes_ + reserved_bytes_ + cap > kMaxRetainedBytes) {
    return false;
  }
  buffer.clear();
  retained_bytes_ += cap;
  free_.push_back(std::move(buffer));
  return true;
}

void BufferPool::spill(Cache& cache) {
  // The older half goes: the cache keeps the buffers it used last.
  // A buffer the shared list cannot take is freed by the erase() below,
  // outside the lock.
  const std::size_t buffers = cache.buffers.size() / 2;
  const std::size_t blocks = cache.blocks.size() / 2;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < buffers; ++i) {
      cache.bytes -= cache.buffers[i].capacity();
      retain_shared(std::move(cache.buffers[i]));
    }
    for (std::size_t i = 0; i < blocks; ++i) {
      if (blocks_.size() < kMaxBuffers) {
        blocks_.push_back(cache.blocks[i]);
      } else {
        delete cache.blocks[i];
      }
    }
  }
  cache.buffers.erase(cache.buffers.begin(),
                      cache.buffers.begin() + static_cast<std::ptrdiff_t>(buffers));
  cache.blocks.erase(cache.blocks.begin(),
                     cache.blocks.begin() + static_cast<std::ptrdiff_t>(blocks));
}

void BufferPool::refill_buffers(Cache& cache) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (!free_.empty() && cache.buffers.size() < kCacheBuffers / 2 &&
         cache.bytes + free_.back().capacity() <= kCacheBytes) {
    const std::size_t cap = free_.back().capacity();
    retained_bytes_ -= cap;
    cache.bytes += cap;
    cache.buffers.push_back(std::move(free_.back()));
    free_.pop_back();
  }
}

void BufferPool::refill_blocks(Cache& cache) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (!blocks_.empty() && cache.blocks.size() < kCacheBuffers / 2) {
    cache.blocks.push_back(blocks_.back());
    blocks_.pop_back();
  }
}

Bytes BufferPool::acquire() {
  Cache* cache = local_cache();
  if (cache != nullptr && cache->reserved) {
    if (cache->buffers.empty()) refill_buffers(*cache);
    if (!cache->buffers.empty()) {
      Bytes buffer = std::move(cache->buffers.back());
      cache->buffers.pop_back();
      cache->bytes -= buffer.capacity();
      ++cache->stats.reuses;
      return buffer;
    }
    ++cache->stats.misses;
    return Bytes{};
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_.empty()) {
    ++stats_.misses;
    return Bytes{};
  }
  Bytes buffer = std::move(free_.back());
  free_.pop_back();
  retained_bytes_ -= buffer.capacity();
  ++stats_.reuses;
  return buffer;
}

void BufferPool::release(Bytes&& buffer) {
  Bytes held = std::move(buffer);
  const std::size_t cap = held.capacity();
  if (cap == 0) return;
  Cache* cache = local_cache();
  if (cache != nullptr && cache->reserved && cap <= kCacheBytes) {
    if (cache->buffers.size() == kCacheBuffers ||
        cache->bytes + cap > kCacheBytes) {
      spill(*cache);
    }
    if (cache->buffers.size() < kCacheBuffers &&
        cache->bytes + cap <= kCacheBytes) {
      held.clear();
      cache->bytes += cap;
      cache->buffers.push_back(std::move(held));
      ++cache->stats.returns;
      return;
    }
  }
  bool retained;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    retained = retain_shared(std::move(held));
    Stats& stats = cache != nullptr ? cache->stats : stats_;
    ++(retained ? stats.returns : stats.dropped);
  }
  // A buffer that was not retained is freed here, outside the lock.
}

SharedBytes* BufferPool::adopt(Bytes&& bytes) {
  SharedBytes* block = nullptr;
  Cache* cache = local_cache();
  if (cache != nullptr && cache->reserved) {
    if (cache->blocks.empty()) refill_blocks(*cache);
    if (!cache->blocks.empty()) {
      block = cache->blocks.back();
      cache->blocks.pop_back();
    }
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!blocks_.empty()) {
      block = blocks_.back();
      blocks_.pop_back();
    }
  }
  if (block == nullptr) block = new SharedBytes;
  block->bytes = std::move(bytes);
  block->refs.store(1, std::memory_order_relaxed);
  return block;
}

void BufferPool::recycle(SharedBytes* block) {
  release(std::move(block->bytes));
  Cache* cache = local_cache();
  if (cache != nullptr && cache->reserved) {
    if (cache->blocks.size() == kCacheBuffers) spill(*cache);
    cache->blocks.push_back(block);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (blocks_.size() < kMaxBuffers) {
      blocks_.push_back(block);
      return;
    }
  }
  delete block;
}

BufferPool::Stats BufferPool::stats() const {
  Stats total;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    total = stats_;
  }
  if (const Cache* cache = local_cache()) {
    total.reuses += cache->stats.reuses;
    total.misses += cache->stats.misses;
    total.returns += cache->stats.returns;
    total.dropped += cache->stats.dropped;
  }
  return total;
}

std::size_t BufferPool::free_count() const {
  std::size_t count;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    count = free_.size();
  }
  if (const Cache* cache = local_cache()) count += cache->buffers.size();
  return count;
}

void BufferPool::reset() {
  std::vector<Bytes> discard;
  std::vector<SharedBytes*> blocks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    discard.swap(free_);
    blocks.swap(blocks_);
    retained_bytes_ = 0;
    stats_ = Stats{};
  }
  if (Cache* cache = local_cache()) {
    cache->buffers.clear();
    cache->bytes = 0;
    blocks.insert(blocks.end(), cache->blocks.begin(), cache->blocks.end());
    cache->blocks.clear();
    cache->stats = Stats{};
  }
  for (SharedBytes* block : blocks) delete block;
}

}  // namespace jacepp::serial
