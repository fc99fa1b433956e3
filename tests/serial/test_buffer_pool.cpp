// BufferPool safety and recycling: a buffer returns to the pool only when the
// LAST Payload reference drops (capture -> deliver -> recycle), live copies
// keep sharing one buffer with intact content, and concurrent acquire/release
// is race-free (the TSan job runs this file like every other test).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/messages.hpp"
#include "net/message.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/serial.hpp"

namespace jacepp::serial {
namespace {

/// Minimal wire struct for exercising net::make_message / payload_of.
struct Ping {
  static constexpr net::MessageType kType = 0x7e57;
  std::uint64_t value = 0;
  std::vector<double> body;

  JACEPP_WIRE_FIELDS(value, body)
};

/// Every test runs against the process-wide singleton; start it clean and
/// leave it clean for whoever runs next.
class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { BufferPool::instance().reset(); }
  void TearDown() override { BufferPool::instance().reset(); }
};

TEST_F(BufferPoolTest, AcquireReusesReleasedCapacity) {
  auto& pool = BufferPool::instance();
  Bytes b = pool.acquire();  // cold: fresh buffer
  EXPECT_EQ(pool.stats().misses, 1u);
  b.assign(1000, 0xab);
  const std::size_t cap = b.capacity();

  pool.release(std::move(b));
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_EQ(pool.stats().returns, 1u);

  Bytes again = pool.acquire();
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_TRUE(again.empty());          // content discarded...
  EXPECT_EQ(again.capacity(), cap);    // ...capacity recycled
}

TEST_F(BufferPoolTest, PooledPayloadRecyclesOnlyAfterLastReference) {
  auto& pool = BufferPool::instance();
  Bytes bytes(512, 0x5a);

  net::Payload first = net::Payload(std::move(bytes));
  {
    net::Payload second = first;  // capture (e.g. sim event queue copy)
    EXPECT_TRUE(second.shares_buffer_with(first));
    EXPECT_EQ(second.bytes().data(), first.bytes().data());

    first = net::Payload{};  // original dies; the copy keeps the buffer alive
    EXPECT_EQ(pool.free_count(), 0u) << "recycled while a reference was live";
    EXPECT_EQ(second.size(), 512u);
    for (const std::uint8_t byte : second.bytes()) ASSERT_EQ(byte, 0x5a);
  }
  // Last reference dropped -> storage is back in the pool.
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_EQ(pool.stats().returns, 1u);
}

TEST_F(BufferPoolTest, CaptureDeliverRecycleRoundTrip) {
  auto& pool = BufferPool::instance();

  Ping ping;
  ping.value = 42;
  ping.body = {1.0, 2.0, 3.0};

  const std::uint8_t* first_storage = nullptr;
  {
    net::Message sent = net::make_message(ping);     // encode into pooled buffer
    first_storage = sent.body.bytes().data();
    net::Message captured = sent;                    // transport capture
    EXPECT_TRUE(captured.body.shares_buffer_with(sent.body));

    sent = net::Message{};                           // sender's copy dies
    const Ping delivered = net::payload_of<Ping>(captured);  // deliver + decode
    EXPECT_EQ(delivered.value, 42u);
    EXPECT_EQ(delivered.body, ping.body);
    EXPECT_EQ(pool.free_count(), 0u);
  }
  ASSERT_EQ(pool.free_count(), 1u);  // recycled after delivery

  // Steady state: the next message reuses the same heap storage.
  net::Message next = net::make_message(ping);
  EXPECT_EQ(next.body.bytes().data(), first_storage);
  EXPECT_GE(pool.stats().reuses, 1u);
}

TEST_F(BufferPoolTest, LiveBufferNeverHandedOut) {
  Ping ping;
  ping.value = 7;
  ping.body.assign(64, 3.25);

  net::Message held = net::make_message(ping);  // keep this one alive
  const Bytes held_copy = held.body.bytes();

  // Churn many messages through the pool while `held` is live; none of the
  // recycled buffers may alias the held one, and its content must not move.
  for (int i = 0; i < 100; ++i) {
    net::Message churn = net::make_message(ping);
    EXPECT_NE(churn.body.bytes().data(), held.body.bytes().data());
  }
  EXPECT_EQ(held.body.bytes(), held_copy);
  const Ping still = net::payload_of<Ping>(held);
  EXPECT_EQ(still.value, 7u);
  EXPECT_EQ(still.body, ping.body);
}

TEST_F(BufferPoolTest, OversizedBuffersAreNeverRetained) {
  auto& pool = BufferPool::instance();
  Bytes huge;
  huge.reserve(BufferPool::kMaxBufferBytes + 1);
  pool.release(std::move(huge));
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_EQ(pool.stats().dropped, 1u);
}

TEST_F(BufferPoolTest, ResetClearsRetentionAndCounters) {
  auto& pool = BufferPool::instance();
  Bytes b(64, 9);
  pool.release(std::move(b));
  ASSERT_EQ(pool.free_count(), 1u);
  pool.reset();
  EXPECT_EQ(pool.free_count(), 0u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.reuses + stats.misses + stats.returns + stats.dropped, 0u);
}

TEST_F(BufferPoolTest, EmptyBodyTakesNoBuffer) {
  // A Heartbeat has no wire fields: its body holds no buffer, so building,
  // copying and dropping it never reaches the pool.
  auto& pool = BufferPool::instance();
  const auto before = pool.stats();
  {
    const net::Message heartbeat = net::make_message(core::msg::Heartbeat{});
    const net::Message copy = heartbeat;
    EXPECT_EQ(heartbeat.type, core::msg::Heartbeat::kType);
    EXPECT_TRUE(heartbeat.body.empty());
    EXPECT_EQ(&heartbeat.body.bytes(), &net::Payload{}.bytes())
        << "the body is the shared empty buffer, not an allocated one";
    EXPECT_EQ(heartbeat.wire_size(), 48u);
    EXPECT_FALSE(copy.body.shares_buffer_with(heartbeat.body));
  }
  const auto after = pool.stats();
  EXPECT_EQ(after.reuses, before.reuses);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.returns, before.returns);
  EXPECT_EQ(after.dropped, before.dropped);
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST_F(BufferPoolTest, EmptyPooledBufferReturnsAtOnce) {
  // An empty encoding keeps no Payload block, but its capacity still goes
  // back to the pool.
  auto& pool = BufferPool::instance();
  Bytes b;
  b.reserve(64);
  const net::Payload p = net::Payload(std::move(b));
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(&p.bytes(), &net::Payload{}.bytes());
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_EQ(pool.stats().returns, 1u);
}

TEST_F(BufferPoolTest, ConcurrentAcquireReleaseIsRaceFree) {
  // Both runtimes release from whatever thread drops the last reference;
  // hammer the pool from several threads (the TSan job verifies the locking).
  auto& pool = BufferPool::instance();
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, t] {
      for (int i = 0; i < kRounds; ++i) {
        Bytes b = pool.acquire();
        b.assign(64 + static_cast<std::size_t>(t), static_cast<std::uint8_t>(i));
        net::Payload p = net::Payload(std::move(b));
        net::Payload copy = p;
        ASSERT_TRUE(copy.shares_buffer_with(p));
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto stats = pool.stats();
  EXPECT_EQ(stats.reuses + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kRounds);
  EXPECT_EQ(stats.returns + stats.dropped,
            static_cast<std::uint64_t>(kThreads) * kRounds);
}

}  // namespace
}  // namespace jacepp::serial
