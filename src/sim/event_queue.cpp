#include "sim/event_queue.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "support/assert.hpp"

namespace jacepp::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

void EventQueue::sift_up(std::size_t i) {
  static_assert(std::is_trivially_copyable_v<Key> && sizeof(Key) == 24);
  const Key moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Key moving = heap_[i];
  while (true) {
    const std::size_t first_child = kArity * i + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moving)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

void EventQueue::rebuild() {
  // Floyd heap construction: sift down every internal node, deepest first.
  if (heap_.size() < 2) return;
  const std::size_t last_parent = (heap_.size() - 2) / kArity;
  for (std::size_t i = last_parent + 1; i-- > 0;) sift_down(i);
}

void EventQueue::pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::release_slot(std::uint32_t slot) {
  slots_[slot].fn = nullptr;
  free_slots_.push_back(slot);
}

EventId EventQueue::schedule(double when, std::function<void()> fn) {
  return schedule_tagged(when, 0, std::move(fn));
}

EventId EventQueue::schedule_tagged(double when, std::uint64_t tag,
                                    std::function<void()> fn) {
  const EventId id = next_id_++;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].fn = std::move(fn);
    slots_[slot].tag = tag;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(fn), tag});
  }
  heap_.push_back(Key{when, id, slot});
  sift_up(heap_.size() - 1);
  ++live_;
  // A fresh id is never in cancelled_, so the top-live invariant holds.
  return id;
}

void EventQueue::cancel(EventId id) {
  if (!cancelled_.insert(id).second) return;  // duplicate cancel: no-op
  if (live_ > 0) --live_;
  // Restore the top-live invariant before returning so empty()/next_time()
  // stay pure reads.
  drop_cancelled();
  if (cancelled_.size() > heap_.size() / 2) purge();
}

void EventQueue::purge() {
  // Sweep every tombstone out of the heap in one pass and rebuild. Each
  // cancelled id is either in the heap (removed here, its slot released) or
  // was already popped (stale cancel); both ways the set empties, so
  // tombstone memory is bounded by half the live-event count between purges.
  // After the sweep the heap holds live events only, which also reconciles
  // live_ against any stale cancels that decremented it spuriously.
  std::size_t kept = 0;
  for (const Key& key : heap_) {
    if (cancelled_.count(key.id) != 0) {
      release_slot(key.slot);
    } else {
      heap_[kept++] = key;
    }
  }
  heap_.resize(kept);
  cancelled_.clear();
  live_ = heap_.size();
  rebuild();
}

void EventQueue::drop_cancelled() {
  if (cancelled_.empty()) return;
  while (!heap_.empty()) {
    auto it = cancelled_.find(heap_.front().id);
    if (it == cancelled_.end()) break;
    cancelled_.erase(it);
    release_slot(heap_.front().slot);
    pop_top();
  }
}

double EventQueue::next_time() const {
  JACEPP_CHECK(!heap_.empty(), "next_time on empty EventQueue");
  return heap_.front().time;
}

std::function<void()> EventQueue::pop(double* now, std::uint64_t* tag) {
  JACEPP_CHECK(!heap_.empty(), "pop on empty EventQueue");
  const Key top = heap_.front();
  pop_top();
  if (live_ > 0) --live_;
  Slot& slot = slots_[top.slot];
  std::function<void()> fn = std::move(slot.fn);
  if (tag != nullptr) *tag = slot.tag;
  release_slot(top.slot);
  // The popped entry was live (invariant); the new top may be a tombstone.
  drop_cancelled();
  if (now != nullptr) *now = top.time;
  return fn;
}

}  // namespace jacepp::sim
