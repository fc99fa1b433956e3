// Discrete-event queue: a stable min-heap of timestamped closures with O(1)
// cancellation flags. Ties in time break by insertion order, which makes the
// whole simulation deterministic for a fixed seed.
//
// The heap holds small keys, not closures (DESIGN.md §12). A key is
// {time, id, slot}, 24 trivially copyable bytes; the closure and its tag sit
// in `slots_`, an array recycled through a free list, so a sift level moves
// 24 bytes instead of a 56-byte entry holding a std::function. The slot
// array grows to the high-water mark of pending events and is reused from
// then on: scheduling allocates nothing unless the closure itself outgrows
// std::function's inline buffer.
//
// The heap is 4-ary (children of i at 4i+1..4i+4) rather than binary: pops
// dominate the simulator loop, and a 4-ary sift-down does half the levels of
// a binary one at 3 extra comparisons per level — a net win once the queue
// holds a few hundred events, because each level is a dependent cache-line
// hop while the sibling comparisons within a level are independent. The
// ordering contract (earliest time first, insertion id as tiebreaker) is
// identical to the previous std::*_heap implementation, so simulations
// replay the same schedules. bench_micro's event_queue rows track
// push/pop/cancel cost.
//
// Cancelled events are tombstoned, not removed. The sweep that skips
// tombstones runs inside cancel() and pop(), which maintains the invariant
// that the heap's top entry is always live — so empty() and next_time() are
// pure O(1) reads (the sharded scheduler's coordinator polls them between
// rounds without mutating shard state). To bound memory under cancel-heavy
// loads (periodic timers rescheduled every tick), cancel() eagerly rebuilds
// the heap once tombstones outnumber half the live entries, so the queue
// never holds more than ~2x the live event count. A swept tombstone's slot
// is released with it.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

namespace jacepp::sim {

using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Schedule `fn` at absolute time `when` (seconds). Returns a cancellable id.
  EventId schedule(double when, std::function<void()> fn);

  /// schedule() with a tag that pop() reports back; the world keeps its
  /// liveness guard there (SimWorld::schedule_guarded).
  EventId schedule_tagged(double when, std::uint64_t tag,
                          std::function<void()> fn);

  /// Mark an event cancelled. The top-of-heap sweep runs eagerly, so the
  /// queue's observable front is never a cancelled event.
  void cancel(EventId id);

  /// True when no live events remain. O(1), const: the top entry is live by
  /// invariant, so a non-empty heap always holds at least one live event.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Time of the next live event. Requires !empty(). O(1), const.
  [[nodiscard]] double next_time() const;

  /// Pop and return the next live event's closure, advancing `now` to its
  /// time and (when `tag` is non-null) reporting its ownership tag.
  /// Requires !empty().
  std::function<void()> pop(double* now, std::uint64_t* tag = nullptr);

  [[nodiscard]] std::size_t scheduled_count() const { return heap_.size(); }
  /// Pending tombstones (cancelled ids not yet swept). Bounded by
  /// scheduled_count() / 2 + 1 after every cancel().
  [[nodiscard]] std::size_t cancelled_count() const { return cancelled_.size(); }
  /// O(1) live-event counter: events scheduled and neither popped nor
  /// cancelled. Exact as long as every cancel() targets a pending event;
  /// a stale cancel (of an id that already fired) is reconciled at the next
  /// eager purge. `empty()` does not depend on this counter.
  [[nodiscard]] std::size_t live_count() const { return live_; }
  /// Closure slots ever allocated: the high-water mark of scheduled_count().
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

 private:
  struct Key {
    double time;
    EventId id;
    std::uint32_t slot;
  };

  struct Slot {
    std::function<void()> fn;
    std::uint64_t tag = 0;
  };

  /// Min-order: should a pop before b? Earliest time first, insertion id as
  /// the deterministic tiebreaker.
  static bool before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void rebuild();
  void pop_top();
  /// Destroy slot `slot`'s closure and put the slot on the free list.
  void release_slot(std::uint32_t slot);

  void drop_cancelled();
  void purge();

  // Manual 4-ary heap over a vector instead of std::priority_queue: purge()
  // needs access to the underlying storage, and the arity is not expressible
  // with std::*_heap.
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_set<EventId> cancelled_;
  EventId next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace jacepp::sim
