// The message path without the allocator. This binary replaces the global
// operator new with a counter that counts only while a test arms it, so it is
// built as its own executable. Sanitizer builds skip it: their runtimes
// change what the process allocates around the code under test.
//
// Pinned, once the pools and slot arrays are warm:
//   * a TaskData round trip on one shard (send, park, deliver, decode,
//     handler, reply) makes no allocation;
//   * so does one whose endpoints sit on different shards (shards = 2: the
//     outbox, the barrier merge and the destination shard's parked slots);
//   * so does a daemon's checkpoint save, on the sender: the task state and
//     the frame are encoded into recycled buffers and the save's body into a
//     recycled block.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "core/daemon.hpp"
#include "core/messages.hpp"
#include "net/env.hpp"
#include "poisson/block_task.hpp"
#include "rmi/rmi.hpp"
#include "sim/world.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
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

/// Counts the allocations made while it lives.
class AllocationWindow {
 public:
  AllocationWindow() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
  }
  ~AllocationWindow() { g_armed.store(false, std::memory_order_relaxed); }
  AllocationWindow(const AllocationWindow&) = delete;
  AllocationWindow& operator=(const AllocationWindow&) = delete;

  [[nodiscard]] std::size_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

void skip_under_sanitizers() {
#ifdef JACEPP_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes change what the process allocates";
#endif
}

// ---------------------------------------------------------------------------
// TaskData ping-pong through a SimWorld
// ---------------------------------------------------------------------------

constexpr std::size_t kLineBytes = 96 * sizeof(double);  // one n = 96 line

/// Answers every TaskData it receives with one of its own, built as a
/// daemon builds it: the payload views a line buffer the actor owns.
class Volley : public net::Actor {
 public:
  explicit Volley(TaskId self) : self_(self), line_(kLineBytes, 0) {}

  void on_start(net::Env& env) override {
    if (serve_to_.valid()) send(env, serve_to_);
  }
  void on_message(const net::Message& message, net::Env& env) override {
    ++received;
    const auto m = net::payload_of<msg::TaskData>(message);
    for (const std::uint8_t b : m.payload) payload_sum += b;
    send(env, message.from);
  }

  /// Serve the first line to `peer` from on_start.
  void serve(const net::Stub& peer) { serve_to_ = peer; }

  std::uint64_t received = 0;
  std::uint64_t payload_sum = 0;

 private:
  void send(net::Env& env, const net::Stub& to) {
    // Rewrite the line in place, as PoissonTask::outgoing does.
    for (std::size_t i = 0; i < line_.size(); ++i) {
      line_[i] = static_cast<std::uint8_t>(sent_ + i);
    }
    ++sent_;
    msg::TaskData data;
    data.app_id = 1;
    data.from_task = self_;
    data.to_task = 1 - self_;
    data.payload = line_;
    rmi::invoke(env, to, data);
  }

  TaskId self_;
  serial::Bytes line_;
  net::Stub serve_to_;
  std::uint64_t sent_ = 0;
};

/// Two Volleys on `shards` shards, on different shards when shards > 1.
struct VolleyWorld {
  std::unique_ptr<sim::SimWorld> world;
  Volley* server = nullptr;
  Volley* receiver = nullptr;

  explicit VolleyWorld(std::size_t shards) {
    sim::SimConfig config;
    config.seed = 7;
    config.shards = shards;
    config.worker_threads = shards;
    world = std::make_unique<sim::SimWorld>(config);
    const net::NodeId first = 1;
    // Pad with idle nodes until the second Volley's id hashes to the other
    // shard.
    net::NodeId second = first + 1;
    while (shards > 1 && sim::SimWorld::shard_of(second, shards) ==
                             sim::SimWorld::shard_of(first, shards)) {
      ++second;
    }
    auto a = std::make_unique<Volley>(0);
    server = a.get();
    const net::Stub a_stub =
        world->add_node(std::move(a), sim::MachineSpec{}, net::EntityKind::Daemon);
    EXPECT_EQ(a_stub.node, first);
    for (net::NodeId idle = first + 1; idle < second; ++idle) {
      world->add_node(std::make_unique<Volley>(1), sim::MachineSpec{},
                      net::EntityKind::Daemon);
    }
    auto b = std::make_unique<Volley>(1);
    receiver = b.get();
    const net::Stub b_stub =
        world->add_node(std::move(b), sim::MachineSpec{}, net::EntityKind::Daemon);
    EXPECT_EQ(b_stub.node, second);
    server->serve(b_stub);
  }

  /// Run until `exchanges` more lines have been delivered in all.
  void run_exchanges(std::uint64_t exchanges) {
    const std::uint64_t target = server->received + receiver->received + exchanges;
    double t = world->now();
    while (server->received + receiver->received < target) {
      t += 0.01;
      world->run_until(t);
    }
  }
};

void expect_round_trips_allocate_nothing(std::size_t shards) {
  VolleyWorld v(shards);
  v.run_exchanges(200);  // warm the pools, slot arrays and counters
  const std::uint64_t delivered = v.server->received + v.receiver->received;
  std::size_t allocations = 0;
  {
    const AllocationWindow window;
    v.run_exchanges(400);
    allocations = window.count();
  }
  EXPECT_GE(v.server->received + v.receiver->received, delivered + 400);
  EXPECT_GT(v.receiver->payload_sum, 0u);
  EXPECT_EQ(allocations, 0u);
  const std::uint64_t cross = v.world->stats().cross_shard_frames;
  if (shards > 1) {
    EXPECT_GE(cross, 600u) << "every line crossed shards";
  } else {
    EXPECT_EQ(cross, 0u);
  }
}

TEST(ZeroAlloc, SameShardTaskDataRoundTrip) {
  skip_under_sanitizers();
  expect_round_trips_allocate_nothing(1);
}

TEST(ZeroAlloc, CrossShardTaskDataRoundTrip) {
  skip_under_sanitizers();
  expect_round_trips_allocate_nothing(2);
}

// ---------------------------------------------------------------------------
// A daemon's checkpoint save
// ---------------------------------------------------------------------------

/// Keeps the last message sent in a slot it owns, counts saves, drops
/// timers, and holds one compute's completion until the test runs it.
class ManualEnv : public net::Env {
 public:
  explicit ManualEnv(net::Stub self) : self_(self) {}

  [[nodiscard]] double now() const override { return 1.0; }
  [[nodiscard]] net::Stub self() const override { return self_; }
  void send(const net::Stub&, net::Message m) override {
    if (m.type == msg::SaveBackup::kType) ++saves;
    last = std::move(m);
  }
  net::TimerId schedule(double, std::function<void()>) override { return 0; }
  void cancel(net::TimerId) override {}
  void compute(std::function<double()> work,
               std::function<void()> done) override {
    (void)work();
    pending_ = std::move(done);
  }
  Rng& rng() override { return rng_; }
  void shutdown_self() override {}

  /// Complete the pending compute: the daemon finishes that iteration
  /// (sends, saves) and starts the next.
  void finish_iteration() {
    std::function<void()> done = std::move(pending_);
    done();
  }

  net::Message last;
  std::size_t saves = 0;

 private:
  net::Stub self_;
  Rng rng_{1};
  std::function<void()> pending_;
};

TEST(ZeroAlloc, CheckpointSaveOnTheSender) {
  skip_under_sanitizers();
  poisson::force_registration();
  const net::Stub sp{1, 1, net::EntityKind::SuperPeer};
  const net::Stub self{2, 1, net::EntityKind::Daemon};
  const net::Stub holder{3, 1, net::EntityKind::Daemon};
  ManualEnv env(self);
  Daemon daemon({sp.address()});
  daemon.on_start(env);

  poisson::PoissonConfig pc;
  pc.n = 96;
  msg::TaskAssignment assignment;
  assignment.app.app_id = 1;
  assignment.app.program = poisson::PoissonTask::kProgramName;
  assignment.app.config = poisson::encode_config(pc);
  assignment.app.task_count = 2;
  assignment.app.checkpoint_every = 1;  // a save after every iteration
  assignment.app.backup_peer_count = 1;
  assignment.task_id = 0;
  assignment.reg.app_id = 1;
  assignment.reg.version = 1;
  assignment.reg.spawner = sp;
  assignment.reg.tasks = {{0, self}, {1, holder}};
  daemon.on_message(net::make_message(assignment), env);
  ASSERT_EQ(daemon.state(), Daemon::State::Computing);

  // The first iterations solve and warm every buffer; with no neighbour
  // data the later ones spin, and each still saves the whole state.
  for (int i = 0; i < 20; ++i) env.finish_iteration();
  const std::size_t saves_before = env.saves;
  std::size_t allocations = 0;
  {
    const AllocationWindow window;
    for (int i = 0; i < 20; ++i) env.finish_iteration();
    allocations = window.count();
  }
  EXPECT_EQ(env.saves - saves_before, 20u);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace jacepp::core
