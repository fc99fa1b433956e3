#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "support/rng.hpp"

namespace jacepp::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  double now = 0;
  while (!q.empty()) q.pop(&now)();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(now, 3.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  double now = 0;
  while (!q.empty()) q.pop(&now)();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelledEventsAreSkipped) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  const EventId second = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  q.cancel(second);
  double now = 0;
  while (!q.empty()) q.pop(&now)();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelEverythingLeavesEmptyQueue) {
  EventQueue q;
  const auto a = q.schedule(1.0, [] {});
  const auto b = q.schedule(2.0, [] {});
  q.cancel(a);
  q.cancel(b);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const auto head = q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
  q.cancel(head);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, EventsScheduledDuringPop) {
  EventQueue q;
  std::vector<double> times;
  double now = 0;
  q.schedule(1.0, [&] {
    times.push_back(1.0);
    q.schedule(1.5, [&] { times.push_back(1.5); });
  });
  while (!q.empty()) q.pop(&now)();
  EXPECT_EQ(times, (std::vector<double>{1.0, 1.5}));
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  double last = -1.0;
  bool ordered = true;
  for (int i = 0; i < 10000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    q.schedule(t, [&, t] {
      if (t < last) ordered = false;
      last = t;
    });
  }
  double now = 0;
  while (!q.empty()) q.pop(&now)();
  EXPECT_TRUE(ordered);
}

TEST(EventQueue, CancelHeavyLoadKeepsMemoryBounded) {
  // A periodic-timer workload: every tick schedules a far-future timeout and
  // cancels the previous one. Lazily tombstoned, the heap would grow without
  // bound (the timeouts are never popped); the eager purge must keep both the
  // heap and the tombstone set proportional to the LIVE event count.
  EventQueue q;
  constexpr int kTicks = 50000;
  EventId pending = q.schedule(1e9, [] {});
  std::size_t max_heap = 0;
  std::size_t max_cancelled = 0;
  for (int i = 0; i < kTicks; ++i) {
    q.cancel(pending);
    pending = q.schedule(1e9 + i, [] {});
    max_heap = std::max(max_heap, q.scheduled_count());
    max_cancelled = std::max(max_cancelled, q.cancelled_count());
  }
  // One live event; a small constant bound, not O(kTicks).
  EXPECT_LE(max_heap, 8u);
  EXPECT_LE(max_cancelled, 8u);
  EXPECT_FALSE(q.empty());
  EXPECT_DOUBLE_EQ(q.next_time(), 1e9 + kTicks - 1);
}

TEST(EventQueue, StaleCancelsDoNotAccumulate) {
  // Cancelling an id that was already popped must not leak a tombstone
  // forever: the purge sweep clears the set wholesale.
  EventQueue q;
  for (int round = 0; round < 1000; ++round) {
    const EventId id = q.schedule(static_cast<double>(round), [] {});
    double now = 0;
    q.pop(&now)();  // popped before the cancel arrives
    q.cancel(id);   // stale
  }
  EXPECT_LE(q.cancelled_count(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PurgePreservesOrderAndLiveEvents) {
  // Interleave schedules and cancels so several purges trigger mid-stream,
  // then verify the surviving events still pop in exact time order.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(q.schedule(static_cast<double>((i * 7919) % 997),
                             [&order, i] { order.push_back(i); }));
  }
  // Kill 3 out of every 4: the tombstone count crosses half the heap size,
  // forcing at least one eager purge while cancels are still streaming in.
  for (int i = 0; i < 2000; ++i) {
    if (i % 4 != 3) q.cancel(ids[i]);
  }
  EXPECT_LE(q.cancelled_count(), q.scheduled_count() / 2 + 1);
  double now = 0;
  double last = -1.0;
  while (!q.empty()) {
    q.pop(&now)();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_EQ(order.size(), 500u);
  for (const int i : order) EXPECT_EQ(i % 4, 3);
  EXPECT_EQ(q.cancelled_count(), 0u);
}

TEST(EventQueue, LiveCountTracksScheduleCancelPop) {
  EventQueue q;
  EXPECT_EQ(q.live_count(), 0u);
  const EventId a = q.schedule(1.0, [] {});
  const EventId b = q.schedule(2.0, [] {});
  q.schedule(3.0, [] {});
  EXPECT_EQ(q.live_count(), 3u);
  q.cancel(b);
  EXPECT_EQ(q.live_count(), 2u);
  q.cancel(b);  // duplicate cancel must not double-decrement
  EXPECT_EQ(q.live_count(), 2u);
  double now = 0;
  q.pop(&now)();
  EXPECT_EQ(q.live_count(), 1u);
  q.cancel(a);  // stale cancel of an already-popped id: live events unchanged
  EXPECT_EQ(q.live_count(), 1u);
  q.pop(&now)();
  EXPECT_EQ(q.live_count(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopReportsTag) {
  EventQueue q;
  q.schedule_tagged(1.0, 42, [] {});
  q.schedule(2.0, [] {});  // untagged: tag 0
  double now = 0;
  std::uint64_t tag = 99;
  q.pop(&now, &tag)();
  EXPECT_EQ(tag, 42u);
  q.pop(&now, &tag)();
  EXPECT_EQ(tag, 0u);
}

TEST(EventQueue, ObserversAreConstAndPure) {
  // empty()/next_time() must be callable through a const reference and leave
  // no observable footprint — the sharded coordinator polls every shard queue
  // between rounds while worker threads are quiescent but unsynchronized
  // writes would still be a race.
  EventQueue q;
  const EventQueue& view = q;
  EXPECT_TRUE(view.empty());
  const EventId a = q.schedule(5.0, [] {});
  q.schedule(1.0, [] {});
  q.cancel(a);
  const std::size_t heap_before = view.scheduled_count();
  const std::size_t tombs_before = view.cancelled_count();
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(view.empty());
    EXPECT_DOUBLE_EQ(view.next_time(), 1.0);
  }
  EXPECT_EQ(view.scheduled_count(), heap_before);
  EXPECT_EQ(view.cancelled_count(), tombs_before);
  EXPECT_EQ(view.live_count(), 1u);
}

TEST(EventQueue, RandomOperationsMatchAnOrderedReference) {
  // 20,000 random schedule / schedule_tagged / cancel / pop operations
  // against a reference ordered by (time, id). Cancels target pending events
  // only, so the live count is exact throughout. Times sit on a coarse grid,
  // so equal times (broken by id) are common. The phases alternate growth,
  // cancel-heavy stretches (which force eager purges) and draining.
  EventQueue q;
  Rng rng(2024);
  struct Ref {
    std::uint64_t tag = 0;
    std::uint64_t token = 0;
  };
  std::map<std::pair<double, EventId>, Ref> reference;
  std::map<EventId, double> pending_time;  // id -> time, for cancels
  std::uint64_t fired = 0;
  std::uint64_t next_token = 1;
  EventId next_id = 1;
  double now = 0.0;
  std::size_t high_water = 0;
  std::size_t purges = 0;
  std::size_t pops = 0;

  for (int op = 0; op < 20000; ++op) {
    const int phase = (op / 2000) % 3;
    const double roll = rng.next_double();
    const double p_schedule = phase == 0 ? 0.6 : phase == 1 ? 0.15 : 0.2;
    const double p_tagged = phase == 0 ? 0.1 : 0.05;
    const double p_cancel = phase == 1 ? 0.6 : 0.15;
    const std::size_t heap_before = q.scheduled_count();
    if (roll < p_schedule + p_tagged) {
      const double when = now + 0.5 * static_cast<double>(rng.index(20));
      const std::uint64_t token = next_token++;
      const bool tagged = roll >= p_schedule;
      const std::uint64_t tag = tagged ? 1 + rng.index(1000) : 0;
      const auto fn = [&fired, token] { fired = token; };
      const EventId id = tagged ? q.schedule_tagged(when, tag, fn)
                                : q.schedule(when, fn);
      ASSERT_EQ(id, next_id++) << "ids count up from 1";
      reference[{when, id}] = Ref{tag, token};
      pending_time[id] = when;
    } else if (roll < p_schedule + p_tagged + p_cancel) {
      if (pending_time.empty()) continue;
      auto it = pending_time.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.index(pending_time.size())));
      q.cancel(it->first);
      reference.erase({it->second, it->first});
      pending_time.erase(it);
      if (q.scheduled_count() + 1 < heap_before) ++purges;
    } else {
      if (reference.empty()) {
        ASSERT_TRUE(q.empty());
        continue;
      }
      const auto expected = reference.begin();
      std::uint64_t tag = ~0ull;
      q.pop(&now, &tag)();
      ++pops;
      ASSERT_EQ(fired, expected->second.token) << "op " << op;
      ASSERT_EQ(tag, expected->second.tag);
      ASSERT_EQ(now, expected->first.first);
      pending_time.erase(expected->first.second);
      reference.erase(expected);
    }
    ASSERT_EQ(q.live_count(), reference.size()) << "op " << op;
    ASSERT_EQ(q.empty(), reference.empty());
    if (!reference.empty()) {
      ASSERT_EQ(q.next_time(), reference.begin()->first.first);
    }
    // Tombstones are the only entries beyond the live ones, and stay under
    // half the heap.
    ASSERT_EQ(q.scheduled_count(), reference.size() + q.cancelled_count());
    ASSERT_LE(q.cancelled_count(), q.scheduled_count() / 2 + 1);
    // Every slot a pop, sweep or purge frees is reused before a new one is
    // made: the slot array is exactly the heap's high-water mark.
    high_water = std::max(high_water, q.scheduled_count());
    ASSERT_EQ(q.slot_count(), high_water) << "op " << op;
  }
  EXPECT_GT(purges, 0u);
  EXPECT_GT(pops, 2000u);
}

}  // namespace
}  // namespace jacepp::sim
