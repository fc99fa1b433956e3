// Allocation counts on the message path. This binary replaces every form of
// the global operator new and delete with versions that count each new and
// allocate with malloc/aligned_alloc/free, so it is built as its own
// executable; it runs in every build, the sanitizer ones included.
//
// Pinned: a heartbeat round trip between a registered daemon and its
// super-peer (invoke, copy, dispatch through each class's table) allocates
// nothing, and neither does a message with a body once the buffer pool is
// warm: its buffer and its block both come back from the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "core/daemon.hpp"
#include "core/messages.hpp"
#include "core/super_peer.hpp"
#include "net/env.hpp"
#include "rmi/rmi.hpp"
#include "serial/buffer_pool.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

/// Counts the call; null on failure. Every block is released with free().
void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) return std::malloc(size);
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

constexpr std::size_t kPlain = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc_or_throw(size, kPlain);
}
void* operator new[](std::size_t size) {
  return counted_alloc_or_throw(size, kPlain);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, kPlain);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, kPlain);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace jacepp::core {
namespace {

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Env that keeps only the last message sent, in a slot it already owns, so
/// a send allocates nothing. Timers are dropped.
class SlotEnv : public net::Env {
 public:
  explicit SlotEnv(net::Stub self) : self_(self) {}

  [[nodiscard]] double now() const override { return now_; }
  [[nodiscard]] net::Stub self() const override { return self_; }
  void send(const net::Stub& to, net::Message m) override {
    m.from = self_;
    last = std::move(m);
    last_to = to;
    ++sends;
  }
  net::TimerId schedule(double, std::function<void()>) override { return 0; }
  void cancel(net::TimerId) override {}
  void compute(std::function<double()>, std::function<void()>) override {}
  Rng& rng() override { return rng_; }
  void shutdown_self() override {}

  double now_ = 1.0;
  net::Message last;
  net::Stub last_to;
  std::size_t sends = 0;

 private:
  net::Stub self_;
  Rng rng_{1};
};

TEST(MessageAlloc, EmptyBodyRoundTripAllocatesNothing) {
  const net::Stub sp_stub{1, 1, net::EntityKind::SuperPeer};
  const net::Stub daemon_stub{2, 1, net::EntityKind::Daemon};
  SlotEnv sp_env(sp_stub);
  SlotEnv daemon_env(daemon_stub);
  SuperPeer super_peer;
  Daemon daemon({sp_stub.address()});

  // Register the daemon, so the heartbeat refreshes a Register entry and the
  // ack lands on a Registered daemon: both handlers do their real work.
  super_peer.on_start(sp_env);
  daemon.on_start(daemon_env);
  ASSERT_EQ(daemon_env.last.type, msg::RegisterDaemon::kType);
  super_peer.on_message(daemon_env.last, sp_env);
  ASSERT_EQ(sp_env.last.type, msg::RegisterAck::kType);
  daemon.on_message(sp_env.last, daemon_env);
  ASSERT_EQ(daemon.state(), Daemon::State::Registered);
  sp_env.last = net::Message{};
  daemon_env.last = net::Message{};
  const std::size_t acks_before = sp_env.sends;
  sp_env.now_ = daemon_env.now_ = 1.5;

  const std::size_t before = allocations();
  rmi::invoke(daemon_env, daemon.registered_super_peer(), msg::Heartbeat{});
  const net::Message heartbeat = daemon_env.last;
  const rmi::Dispatch at_super_peer =
      SuperPeer::table().dispatch(super_peer, heartbeat, sp_env);
  const net::Message ack = sp_env.last;
  const rmi::Dispatch at_daemon =
      Daemon::table().dispatch(daemon, ack, daemon_env);
  const std::size_t after = allocations();

  EXPECT_EQ(at_super_peer, rmi::Dispatch::Handled);
  EXPECT_EQ(at_daemon, rmi::Dispatch::Handled);
  EXPECT_EQ(sp_env.sends, acks_before + 1) << "the super-peer did not ack";
  EXPECT_EQ(ack.type, msg::HeartbeatAck::kType);
  EXPECT_EQ(after - before, 0u);
}

TEST(MessageAlloc, BodyAllocatesNothingWhenPoolIsWarm) {
  msg::TaskData data;
  data.app_id = 1;
  data.from_task = 2;
  data.to_task = 3;
  const serial::Bytes line(768, 0x5a);  // one n = 96 halo line
  data.payload = line;
  serial::BufferPool::instance().reset();
  { const net::Message warm = net::make_message(data); }

  const std::size_t before = allocations();
  {
    const net::Message m = net::make_message(data);
    const net::Message copy = m;
    EXPECT_TRUE(copy.body.shares_buffer_with(m.body));
  }
  EXPECT_EQ(allocations() - before, 0u);
}

}  // namespace
}  // namespace jacepp::core
