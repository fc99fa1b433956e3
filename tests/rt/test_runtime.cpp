#include "rt/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include "rmi/rmi.hpp"

namespace jacepp::rt {
namespace {

struct Ping {
  static constexpr net::MessageType kType = 9100;
  std::uint32_t value = 0;
  JACEPP_WIRE_FIELDS(value)
};

class Echo : public net::Actor {
 public:
  void on_start(net::Env&) override { started.store(true); }
  void on_message(const net::Message& m, net::Env& env) override {
    last_value.store(net::payload_of<Ping>(m).value);
    ++received;
    if (reply_to.valid()) rmi::invoke(env, reply_to, Ping{m.from.node != 0 ? 1u : 0u});
  }
  void on_stop(net::Env&) override { stopped.store(true); }

  std::atomic<bool> started{false};
  std::atomic<bool> stopped{false};
  std::atomic<std::uint32_t> last_value{0};
  std::atomic<int> received{0};
  net::Stub reply_to;
};

void wait_for(const std::function<bool()>& cond, double seconds = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(static_cast<int>(seconds * 1000));
  while (!cond() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ThreadRuntime, StartsActors) {
  ThreadRuntime runtime;
  auto actor = std::make_unique<Echo>();
  Echo* echo = actor.get();
  runtime.add_node(std::move(actor), net::EntityKind::Daemon);
  wait_for([&] { return echo->started.load(); });
  EXPECT_TRUE(echo->started.load());
  runtime.shutdown_all();
  EXPECT_TRUE(echo->stopped.load());
}

TEST(ThreadRuntime, DeliversPostedMessages) {
  ThreadRuntime runtime;
  auto actor = std::make_unique<Echo>();
  Echo* echo = actor.get();
  const auto stub = runtime.add_node(std::move(actor), net::EntityKind::Daemon);
  runtime.post(stub, net::make_message(Ping{77}));
  wait_for([&] { return echo->received.load() == 1; });
  EXPECT_EQ(echo->last_value.load(), 77u);
  runtime.shutdown_all();
}

TEST(ThreadRuntime, CrossActorMessaging) {
  ThreadRuntime runtime;
  auto a = std::make_unique<Echo>();
  auto b = std::make_unique<Echo>();
  Echo* eb = b.get();
  const auto stub_b = runtime.add_node(std::move(b), net::EntityKind::Daemon);
  a->reply_to = stub_b;
  auto ea = a.get();
  const auto stub_a = runtime.add_node(std::move(a), net::EntityKind::Daemon);
  runtime.post(stub_a, net::make_message(Ping{5}));
  wait_for([&] { return eb->received.load() == 1; });
  EXPECT_EQ(ea->received.load(), 1);
  EXPECT_EQ(eb->received.load(), 1);
  runtime.shutdown_all();
}

TEST(ThreadRuntime, DisconnectedNodeReceivesNothingAndSkipsOnStop) {
  ThreadRuntime runtime;
  auto actor = std::make_unique<Echo>();
  Echo* echo = actor.get();
  const auto stub = runtime.add_node(std::move(actor), net::EntityKind::Daemon);
  wait_for([&] { return echo->started.load(); });
  runtime.disconnect(stub.node);
  EXPECT_TRUE(runtime.wait_node(stub.node, 5.0));
  runtime.post(stub, net::make_message(Ping{1}));
  EXPECT_EQ(echo->received.load(), 0);
  EXPECT_FALSE(echo->stopped.load());  // crash: no graceful on_stop
  EXPECT_EQ(runtime.stats().lost.load(), 1u);
  runtime.shutdown_all();
  EXPECT_FALSE(echo->stopped.load());
}

TEST(ThreadRuntime, StaleIncarnationDropped) {
  ThreadRuntime runtime;
  auto actor = std::make_unique<Echo>();
  Echo* echo = actor.get();
  auto stub = runtime.add_node(std::move(actor), net::EntityKind::Daemon);
  stub.incarnation = 99;  // wrong incarnation
  runtime.post(stub, net::make_message(Ping{1}));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(echo->received.load(), 0);
  runtime.shutdown_all();
}

TEST(ThreadRuntime, AddressStubReaches) {
  ThreadRuntime runtime;
  auto actor = std::make_unique<Echo>();
  Echo* echo = actor.get();
  const auto stub = runtime.add_node(std::move(actor), net::EntityKind::Daemon);
  runtime.post(stub.address(), net::make_message(Ping{3}));
  wait_for([&] { return echo->received.load() == 1; });
  EXPECT_EQ(echo->received.load(), 1);
  runtime.shutdown_all();
}

TEST(ThreadRuntime, TimersFire) {
  class TimerActor : public net::Actor {
   public:
    void on_start(net::Env& env) override {
      env.schedule(0.02, [this] { fired.store(true); });
    }
    void on_message(const net::Message&, net::Env&) override {}
    std::atomic<bool> fired{false};
  };

  ThreadRuntime runtime;
  auto actor = std::make_unique<TimerActor>();
  TimerActor* ta = actor.get();
  runtime.add_node(std::move(actor), net::EntityKind::Daemon);
  wait_for([&] { return ta->fired.load(); });
  EXPECT_TRUE(ta->fired.load());
  runtime.shutdown_all();
}

TEST(ThreadRuntime, CancelledTimerDoesNotFire) {
  class TimerActor : public net::Actor {
   public:
    void on_start(net::Env& env) override {
      const auto id = env.schedule(0.08, [this] { fired.store(true); });
      env.schedule(0.01, [&env, id, this] {
        env.cancel(id);
        cancelled.store(true);
      });
    }
    void on_message(const net::Message&, net::Env&) override {}
    std::atomic<bool> fired{false};
    std::atomic<bool> cancelled{false};
  };

  ThreadRuntime runtime;
  auto actor = std::make_unique<TimerActor>();
  TimerActor* ta = actor.get();
  runtime.add_node(std::move(actor), net::EntityKind::Daemon);
  wait_for([&] { return ta->cancelled.load(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(ta->fired.load());
  runtime.shutdown_all();
}

TEST(ThreadRuntime, ComputeDefersCompletion) {
  // compute() must return control to the loop so messages interleave even
  // when an actor computes continuously.
  class Looper : public net::Actor {
   public:
    void on_start(net::Env& env) override { spin(env); }
    void spin(net::Env& env) {
      if (rounds.fetch_add(1) > 200 || got_message.load()) return;
      env.compute([] { return 1.0; }, [this, &env] { spin(env); });
    }
    void on_message(const net::Message&, net::Env&) override {
      got_message.store(true);
    }
    std::atomic<int> rounds{0};
    std::atomic<bool> got_message{false};
  };

  ThreadRuntime runtime;
  auto actor = std::make_unique<Looper>();
  Looper* looper = actor.get();
  const auto stub = runtime.add_node(std::move(actor), net::EntityKind::Daemon);
  runtime.post(stub, net::make_message(Ping{1}));
  wait_for([&] { return looper->got_message.load() || looper->rounds.load() > 200; });
  EXPECT_TRUE(looper->got_message.load());
  runtime.shutdown_all();
}

TEST(ThreadRuntime, BurstArrivesInOrderFromItsSender) {
  constexpr std::uint32_t kCount = 20;
  // Records each ping's value and sender; the test reads the vectors only
  // after shutdown_all() joined the worker.
  class Sink : public net::Actor {
   public:
    void on_start(net::Env&) override {}
    void on_message(const net::Message& m, net::Env&) override {
      std::lock_guard<std::mutex> lock(mutex);
      values.push_back(net::payload_of<Ping>(m).value);
      senders.push_back(m.from);
      received.fetch_add(1);
    }
    std::atomic<int> received{0};
    std::mutex mutex;
    std::vector<std::uint32_t> values;
    std::vector<net::Stub> senders;
  };
  class Burst : public net::Actor {
   public:
    explicit Burst(net::Stub to) : to_(to) {}
    void on_start(net::Env& env) override {
      for (std::uint32_t v = 0; v < kCount; ++v) {
        env.send(to_, net::make_message(Ping{v}));
      }
    }
    void on_message(const net::Message&, net::Env&) override {}

   private:
    net::Stub to_;
  };

  ThreadRuntime runtime;
  auto sink = std::make_unique<Sink>();
  Sink* s = sink.get();
  const auto sink_stub = runtime.add_node(std::move(sink), net::EntityKind::Daemon);
  const auto burst_stub = runtime.add_node(std::make_unique<Burst>(sink_stub),
                                           net::EntityKind::Daemon);
  wait_for([&] { return s->received.load() >= static_cast<int>(kCount); });
  runtime.shutdown_all();

  // Every message arrived once, in send order, stamped with its sender.
  ASSERT_EQ(s->values.size(), kCount);
  for (std::uint32_t v = 0; v < kCount; ++v) {
    EXPECT_EQ(s->values[v], v);
    EXPECT_EQ(s->senders[v], burst_stub)
        << "ping " << v << " from " << s->senders[v].to_debug_string();
  }
}

TEST(ThreadRuntime, ShutdownIsIdempotent) {
  ThreadRuntime runtime;
  runtime.add_node(std::make_unique<Echo>(), net::EntityKind::Daemon);
  runtime.shutdown_all();
  runtime.shutdown_all();  // second call must be a no-op
  SUCCEED();
}

}  // namespace
}  // namespace jacepp::rt
