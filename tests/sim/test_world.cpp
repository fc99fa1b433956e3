#include "sim/world.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "net/env.hpp"
#include "rmi/rmi.hpp"

namespace jacepp::sim {
namespace {

/// Minimal test payload.
struct Ping {
  static constexpr net::MessageType kType = 9001;
  std::uint32_t value = 0;
  JACEPP_WIRE_FIELDS(value)
};

/// Actor recording everything it sees.
class Recorder : public net::Actor {
 public:
  void on_start(net::Env& env) override {
    started_at = env.now();
    env_ = &env;
  }
  void on_message(const net::Message& m, net::Env& env) override {
    received.push_back(net::payload_of<Ping>(m).value);
    receive_times.push_back(env.now());
    from = m.from;
  }
  void on_stop(net::Env&) override { stopped = true; }

  void send_ping(const net::Stub& to, std::uint32_t value) {
    rmi::invoke(*env_, to, Ping{value});
  }

  net::Env* env_ = nullptr;
  double started_at = -1;
  std::vector<std::uint32_t> received;
  std::vector<double> receive_times;
  net::Stub from;
  bool stopped = false;
};

TEST(SimWorld, StartsActorsAtTimeZero) {
  SimWorld world;
  auto actor = std::make_unique<Recorder>();
  Recorder* rec = actor.get();
  world.add_node(std::move(actor), MachineSpec{}, net::EntityKind::Daemon);
  world.run();
  EXPECT_DOUBLE_EQ(rec->started_at, 0.0);
}

TEST(SimWorld, DeliversMessagesWithLatency) {
  SimWorld world;
  auto a = std::make_unique<Recorder>();
  auto b = std::make_unique<Recorder>();
  Recorder* ra = a.get();
  Recorder* rb = b.get();
  const auto stub_a =
      world.add_node(std::move(a), MachineSpec{}, net::EntityKind::Daemon);
  const auto stub_b =
      world.add_node(std::move(b), MachineSpec{}, net::EntityKind::Daemon);
  (void)stub_a;
  world.schedule_global(0.0, [&] { ra->send_ping(stub_b, 42); });
  world.run();
  ASSERT_EQ(rb->received.size(), 1u);
  EXPECT_EQ(rb->received[0], 42u);
  EXPECT_GT(rb->receive_times[0], 0.0);        // latency is non-zero
  EXPECT_LT(rb->receive_times[0], 0.05);       // wire + RMI-style overhead
  EXPECT_EQ(rb->from.node, stub_a.node);       // sender stub attached
  EXPECT_EQ(world.stats().delivered, 1u);
}

TEST(SimWorld, MessagesToDownNodesAreLost) {
  SimWorld world;
  auto a = std::make_unique<Recorder>();
  auto b = std::make_unique<Recorder>();
  Recorder* ra = a.get();
  world.add_node(std::move(a), MachineSpec{}, net::EntityKind::Daemon);
  const auto stub_b =
      world.add_node(std::move(b), MachineSpec{}, net::EntityKind::Daemon);
  world.schedule_global(0.0, [&] {
    world.disconnect(stub_b.node);
    ra->send_ping(stub_b, 1);
  });
  world.run();
  EXPECT_EQ(world.stats().lost_down, 1u);
  EXPECT_EQ(world.stats().delivered, 0u);
}

TEST(SimWorld, InFlightMessagesToCrashedNodeAreLost) {
  SimWorld world;
  auto a = std::make_unique<Recorder>();
  auto b = std::make_unique<Recorder>();
  Recorder* ra = a.get();
  Recorder* rb = b.get();
  world.add_node(std::move(a), MachineSpec{}, net::EntityKind::Daemon);
  const auto stub_b =
      world.add_node(std::move(b), MachineSpec{}, net::EntityKind::Daemon);
  world.schedule_global(0.0, [&] {
    ra->send_ping(stub_b, 1);            // in flight...
    world.disconnect(stub_b.node);       // ...crashes before delivery
  });
  world.run();
  EXPECT_TRUE(rb->received.empty());
  EXPECT_EQ(world.stats().lost_down, 1u);
}

TEST(SimWorld, StaleIncarnationStubsAreRejected) {
  SimWorld world;
  auto a = std::make_unique<Recorder>();
  Recorder* ra = a.get();
  world.add_node(std::move(a), MachineSpec{}, net::EntityKind::Daemon);
  auto b = std::make_unique<Recorder>();
  const auto old_stub =
      world.add_node(std::move(b), MachineSpec{}, net::EntityKind::Daemon);

  world.schedule_global(1.0, [&] { world.disconnect(old_stub.node); });
  Recorder* revived = nullptr;
  world.schedule_global(2.0, [&] {
    auto fresh = std::make_unique<Recorder>();
    revived = fresh.get();
    world.revive(old_stub.node, std::move(fresh));
  });
  world.schedule_global(3.0, [&] { ra->send_ping(old_stub, 7); });  // stale!
  world.run();
  ASSERT_NE(revived, nullptr);
  EXPECT_TRUE(revived->received.empty());
  EXPECT_EQ(world.stats().lost_stale, 1u);
}

TEST(SimWorld, AddressStubsReachAnyIncarnation) {
  SimWorld world;
  auto a = std::make_unique<Recorder>();
  Recorder* ra = a.get();
  world.add_node(std::move(a), MachineSpec{}, net::EntityKind::Daemon);
  auto b = std::make_unique<Recorder>();
  const auto old_stub =
      world.add_node(std::move(b), MachineSpec{}, net::EntityKind::Daemon);

  Recorder* revived = nullptr;
  world.schedule_global(1.0, [&] { world.disconnect(old_stub.node); });
  world.schedule_global(2.0, [&] {
    auto fresh = std::make_unique<Recorder>();
    revived = fresh.get();
    world.revive(old_stub.node, std::move(fresh));
  });
  world.schedule_global(3.0, [&] { ra->send_ping(old_stub.address(), 7); });
  world.run();
  ASSERT_NE(revived, nullptr);
  ASSERT_EQ(revived->received.size(), 1u);
  EXPECT_EQ(revived->received[0], 7u);
}

TEST(SimWorld, ReviveBumpsIncarnation) {
  SimWorld world;
  auto a = std::make_unique<Recorder>();
  const auto stub =
      world.add_node(std::move(a), MachineSpec{}, net::EntityKind::Daemon);
  EXPECT_EQ(stub.incarnation, 1u);
  world.disconnect(stub.node);
  const auto stub2 = world.revive(stub.node, std::make_unique<Recorder>());
  EXPECT_EQ(stub2.incarnation, 2u);
  EXPECT_TRUE(world.is_up(stub.node));
  EXPECT_FALSE(world.is_current(stub));
  EXPECT_TRUE(world.is_current(stub2));
}

TEST(SimWorld, ComputeChargesTimeAndSerializes) {
  SimWorld world;

  class Computer : public net::Actor {
   public:
    void on_start(net::Env& env) override {
      // Two compute units of 1e6 flops each on a 1e6 flops/s machine must
      // finish at ~1s and ~2s (serialized), not both at ~1s.
      env.compute([] { return 1e6; }, [&, this] { first_done = env_->now(); });
      env.compute([] { return 1e6; }, [&, this] { second_done = env_->now(); });
      env_ = &env;
    }
    void on_message(const net::Message&, net::Env&) override {}
    net::Env* env_ = nullptr;
    double first_done = -1;
    double second_done = -1;
  };

  SimConfig config;
  config.compute_jitter = 0.0;
  SimWorld jitterless(config);
  auto actor = std::make_unique<Computer>();
  Computer* computer = actor.get();
  MachineSpec spec;
  spec.flops_per_sec = 1e6;
  jitterless.add_node(std::move(actor), spec, net::EntityKind::Daemon);
  jitterless.run();
  EXPECT_NEAR(computer->first_done, 1.0, 1e-9);
  EXPECT_NEAR(computer->second_done, 2.0, 1e-9);
}

TEST(SimWorld, TimerCancellation) {
  SimWorld world;

  class TimerActor : public net::Actor {
   public:
    void on_start(net::Env& env) override {
      const auto id = env.schedule(1.0, [this] { fired = true; });
      env.schedule(0.5, [&env, id] { env.cancel(id); });
    }
    void on_message(const net::Message&, net::Env&) override {}
    bool fired = false;
  };

  auto actor = std::make_unique<TimerActor>();
  TimerActor* ta = actor.get();
  world.add_node(std::move(actor), MachineSpec{}, net::EntityKind::Daemon);
  world.run();
  EXPECT_FALSE(ta->fired);
}

TEST(SimWorld, TimersDieWithTheirNode) {
  SimWorld world;

  class TimerActor : public net::Actor {
   public:
    void on_start(net::Env& env) override {
      env.schedule(5.0, [this] { fired = true; });
    }
    void on_message(const net::Message&, net::Env&) override {}
    bool fired = false;
  };

  auto actor = std::make_unique<TimerActor>();
  TimerActor* ta = actor.get();
  const auto stub =
      world.add_node(std::move(actor), MachineSpec{}, net::EntityKind::Daemon);
  world.schedule_global(1.0, [&] { world.disconnect(stub.node); });
  world.run();
  EXPECT_FALSE(ta->fired);
}

TEST(SimWorld, ShutdownSelfInvokesOnStop) {
  SimWorld world;

  class Quitter : public net::Actor {
   public:
    void on_start(net::Env& env) override {
      env.schedule(1.0, [&env] { env.shutdown_self(); });
    }
    void on_message(const net::Message&, net::Env&) override {}
    void on_stop(net::Env&) override { stopped = true; }
    bool stopped = false;
  };

  auto actor = std::make_unique<Quitter>();
  Quitter* quitter = actor.get();
  const auto stub =
      world.add_node(std::move(actor), MachineSpec{}, net::EntityKind::Daemon);
  world.run();
  EXPECT_TRUE(quitter->stopped);
  EXPECT_FALSE(world.is_up(stub.node));
}

TEST(SimWorld, RunUntilStopsAtRequestedTime) {
  SimWorld world;
  int fired = 0;
  world.schedule_global(1.0, [&] { ++fired; });
  world.schedule_global(5.0, [&] { ++fired; });
  world.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(world.now(), 2.0);
  world.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(SimWorld, BiggerMessagesTakeLonger) {
  SimConfig config;
  config.message_jitter = 0.0;
  SimWorld world(config);
  auto a = std::make_unique<Recorder>();
  auto b = std::make_unique<Recorder>();
  Recorder* ra = a.get();
  Recorder* rb = b.get();
  world.add_node(std::move(a), MachineSpec{}, net::EntityKind::Daemon);
  const auto stub_b =
      world.add_node(std::move(b), MachineSpec{}, net::EntityKind::Daemon);
  world.schedule_global(0.0, [&] {
    net::Message small;
    small.type = Ping::kType;
    small.body = serial::encode(Ping{1});
    net::Message big = small;
    big.body = serial::Bytes(1000000);  // ~1MB
    ra->env_->send(stub_b, big);
    ra->env_->send(stub_b, small);
  });
  world.run();
  ASSERT_EQ(rb->receive_times.size(), 2u);
  // The small message, although sent second, must arrive first.
  EXPECT_LT(rb->receive_times[0], rb->receive_times[1]);
}

TEST(SimWorld, ClearStopReArmsRunUntil) {
  SimWorld world;
  std::vector<int> fired;
  world.schedule_global(1.0, [&] {
    fired.push_back(1);
    world.request_stop();
  });
  world.schedule_global(2.0, [&] { fired.push_back(2); });

  EXPECT_TRUE(world.run_until(5.0));  // stop requested at t = 1
  ASSERT_EQ(fired, std::vector<int>({1}));
  EXPECT_DOUBLE_EQ(world.now(), 1.0);  // clock frozen at the stop event
  EXPECT_TRUE(world.stop_requested());

  // A stopped world stays stopped: run_until is a no-op until re-armed.
  EXPECT_TRUE(world.run_until(5.0));
  ASSERT_EQ(fired, std::vector<int>({1}));

  world.clear_stop();
  EXPECT_FALSE(world.stop_requested());
  EXPECT_FALSE(world.run_until(5.0));  // re-armed: drains the rest
  EXPECT_EQ(fired, std::vector<int>({1, 2}));
  EXPECT_DOUBLE_EQ(world.now(), 5.0);
}

TEST(SimWorld, ReviveWhileMessageInFlightDropsOldIncarnationFrame) {
  // The frame was addressed to a live incarnation-1 stub at send time, but the
  // destination crashes AND revives (incarnation 2) before the bits arrive.
  // The in-flight frame belongs to the dead incarnation: the revived actor
  // must never see it, and it is accounted as lost in flight (lost_down).
  SimWorld world;
  auto a = std::make_unique<Recorder>();
  Recorder* ra = a.get();
  world.add_node(std::move(a), MachineSpec{}, net::EntityKind::Daemon);
  const auto stub_b = world.add_node(std::make_unique<Recorder>(), MachineSpec{},
                                     net::EntityKind::Daemon);
  Recorder* revived = nullptr;
  world.schedule_global(0.0, [&] {
    ra->send_ping(stub_b, 9);          // in flight for >= ~16 ms...
    world.disconnect(stub_b.node);     // ...dest crashes...
    auto fresh = std::make_unique<Recorder>();
    revived = fresh.get();
    world.revive(stub_b.node, std::move(fresh));  // ...and is back before arrival
  });
  world.run();
  ASSERT_NE(revived, nullptr);
  EXPECT_TRUE(revived->received.empty());
  EXPECT_EQ(world.stats().lost_down, 1u);
  EXPECT_EQ(world.stats().delivered, 0u);
  // A fresh send to the *old* stub after the revive is a stale drop instead.
  world.schedule_global(world.now() + 0.001, [&] { ra->send_ping(stub_b, 10); });
  world.run();
  EXPECT_TRUE(revived->received.empty());
  EXPECT_EQ(world.stats().lost_stale, 1u);
}

// --- ids the node table never allocated (it is indexed by id - 1) ----------

TEST(SimWorld, UnknownIdsAreNeitherUpNorCurrent) {
  SimWorld world;
  world.add_node(std::make_unique<Recorder>(), MachineSpec{},
                 net::EntityKind::Daemon);
  const auto last = world.add_node(std::make_unique<Recorder>(), MachineSpec{},
                                   net::EntityKind::Daemon);
  for (const net::NodeId id : {net::kInvalidNode, last.node + 1}) {
    EXPECT_FALSE(world.is_up(id)) << "id " << id;
    EXPECT_FALSE(world.is_current(net::Stub{id, 1, net::EntityKind::Daemon}))
        << "id " << id;
    EXPECT_EQ(world.actor(id), nullptr) << "id " << id;
  }
  EXPECT_TRUE(world.is_up(last.node));
  EXPECT_NE(world.actor(last.node), nullptr);
}

TEST(SimWorld, SendToNeverAllocatedIdIsLostDown) {
  for (const std::size_t shards : {1u, 4u}) {
    SimConfig config;
    config.shards = shards;
    SimWorld world(config);
    auto a = std::make_unique<Recorder>();
    auto b = std::make_unique<Recorder>();
    Recorder* ra = a.get();
    Recorder* rb = b.get();
    world.add_node(std::move(a), MachineSpec{}, net::EntityKind::Daemon);
    const auto stub_b =
        world.add_node(std::move(b), MachineSpec{}, net::EntityKind::Daemon);
    // After on_start: with shards >= 2 a global event at t = 0 runs first.
    world.schedule_global(0.5, [&] {
      ra->send_ping(net::Stub{stub_b.node + 1, 1, net::EntityKind::Daemon}, 1);
    });
    world.run();
    EXPECT_EQ(world.stats().lost_down, 1u) << "shards " << shards;
    EXPECT_EQ(world.stats().delivered, 0u) << "shards " << shards;
    EXPECT_TRUE(rb->received.empty()) << "shards " << shards;
  }
}

// --- LinkKeyHash collision distribution (see the combine in world.hpp) ------

TEST(LinkKeyHash, StructuredIdsDoNotCollapseBuckets) {
  // Ids whose low bits carry no entropy (here: multiples of 1024) are the
  // killer for the old `from * C ^ to` combine: `to`'s low bits entered the
  // bucket index unmixed, so with power-of-two bucket counts every key of a
  // given sender landed in ONE bucket (load ~ fan-out, here 95). The two-step
  // combine must keep the max load near the random-hash tail.
  LinkKeyHash hash;
  constexpr std::size_t kNodes = 96;
  constexpr std::size_t kBuckets = 1024;  // power of two, libstdc++-style
  std::vector<int> load(kBuckets, 0);
  for (std::size_t f = 1; f <= kNodes; ++f) {
    for (std::size_t t = 1; t <= kNodes; ++t) {
      if (f == t) continue;
      ++load[hash(LinkKey{f << 10, t << 10}) % kBuckets];
    }
  }
  const int max_load = *std::max_element(load.begin(), load.end());
  // 9120 keys over 1024 buckets: expected load ~8.9; a random hash's max is
  // ~24 (Poisson tail). 3x expected is a loose, flake-proof ceiling that the
  // old combine missed by an order of magnitude.
  EXPECT_LE(max_load, 27);
}

TEST(LinkKeyHash, DenseAllToAllSpreadsAndStaysInjective) {
  LinkKeyHash hash;
  constexpr std::size_t kNodes = 96;
  constexpr std::size_t kBuckets = 1024;
  std::vector<int> load(kBuckets, 0);
  std::unordered_set<std::size_t> distinct;
  std::size_t keys = 0;
  for (std::size_t f = 1; f <= kNodes; ++f) {
    for (std::size_t t = 1; t <= kNodes; ++t) {
      if (f == t) continue;
      const std::size_t h = hash(LinkKey{f, t});
      distinct.insert(h);
      ++load[h % kBuckets];
      ++keys;
    }
  }
  EXPECT_EQ(distinct.size(), keys);  // no 64-bit collisions on a dense grid
  EXPECT_LE(*std::max_element(load.begin(), load.end()), 27);
  // Direction matters: (a, b) and (b, a) are different links.
  EXPECT_NE(hash(LinkKey{1, 2}), hash(LinkKey{2, 1}));
}

}  // namespace
}  // namespace jacepp::sim
