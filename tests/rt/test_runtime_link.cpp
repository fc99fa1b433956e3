// ThreadRuntime + link layer: coalescing under flush windows, one frame per
// message in send order, and the graceful-exit flush, on real threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "rt/runtime.hpp"

namespace jacepp::rt {
namespace {

using core::msg::TaskData;

struct Ping {
  static constexpr net::MessageType kType = 9401;
  std::uint32_t value = 0;
  JACEPP_WIRE_FIELDS(value)
};

/// Thread-safe recorder: the worker thread appends, the test thread reads
/// counts while running and the vectors only after shutdown_all() joined.
class Sink : public net::Actor {
 public:
  void on_start(net::Env&) override {}
  void on_message(const net::Message& m, net::Env&) override {
    std::lock_guard<std::mutex> lock(mutex);
    senders.push_back(m.from);
    if (m.type == TaskData::kType) {
      data_iterations.push_back(net::payload_of<TaskData>(m).iteration);
    } else if (m.type == Ping::kType) {
      ping_values.push_back(net::payload_of<Ping>(m).value);
    }
    received.fetch_add(1);
  }

  std::atomic<int> received{0};
  std::mutex mutex;
  std::vector<net::Stub> senders;
  std::vector<std::uint64_t> data_iterations;
  std::vector<std::uint32_t> ping_values;
};

/// Runs a send script on its own worker thread (Env::send must be called from
/// the owning thread, so tests cannot use ThreadRuntime::post for link paths).
class Script : public net::Actor {
 public:
  explicit Script(std::function<void(net::Env&)> fn) : fn_(std::move(fn)) {}
  void on_start(net::Env& env) override { fn_(env); }
  void on_message(const net::Message&, net::Env&) override {}

 private:
  std::function<void(net::Env&)> fn_;
};

net::Message task_data(std::uint32_t tag, std::uint64_t iteration) {
  TaskData d;
  d.app_id = 1;
  d.from_task = 0;
  d.to_task = 1;
  d.tag = tag;
  d.iteration = iteration;
  const serial::Bytes payload(128);
  d.payload = payload;
  return net::make_message(d);
}

net::LinkConfig link_config(double flush_window) {
  core::CommConfig comm;
  comm.flush_window = flush_window;
  return core::msg::link_config_from(comm);
}

void wait_for(const std::function<bool()>& cond, double seconds = 5.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int>(seconds * 1000));
  while (!cond() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ThreadRuntimeLink, CoalescesDataBurstToNewest) {
  ThreadRuntime runtime(42, link_config(0.1));
  auto sink = std::make_unique<Sink>();
  Sink* s = sink.get();
  const auto sink_stub = runtime.add_node(std::move(sink), net::EntityKind::Daemon);

  runtime.add_node(std::make_unique<Script>([&](net::Env& env) {
                     // Burst within one on_start call: the first flushes
                     // immediately, 2..5 coalesce until the window closes.
                     for (std::uint64_t it = 1; it <= 5; ++it) {
                       env.send(sink_stub, task_data(0, it));
                     }
                   }),
                   net::EntityKind::Daemon);

  wait_for([&] { return s->received.load() >= 2; });
  runtime.shutdown_all();

  ASSERT_EQ(s->data_iterations.size(), 2u);
  EXPECT_EQ(s->data_iterations[0], 1u);
  EXPECT_EQ(s->data_iterations[1], 5u);  // iterations 2..4 were superseded
  EXPECT_EQ(runtime.comm_stats().snapshot().coalesced, 3u);
}

TEST(ThreadRuntimeLink, ControlBurstArrivesInOrderFromItsSender) {
  ThreadRuntime runtime(42, link_config(0.05));
  auto sink = std::make_unique<Sink>();
  Sink* s = sink.get();
  const auto sink_stub = runtime.add_node(std::move(sink), net::EntityKind::Daemon);

  constexpr std::uint32_t kCount = 20;
  const auto script_stub = runtime.add_node(
      std::make_unique<Script>([&](net::Env& env) {
        for (std::uint32_t v = 0; v < kCount; ++v) {
          env.send(sink_stub, net::make_message(Ping{v}));
        }
      }),
      net::EntityKind::Daemon);

  wait_for([&] { return s->received.load() >= static_cast<int>(kCount); });
  runtime.shutdown_all();

  // Every control message arrived once, in send order, each its own frame
  // naming its sender.
  ASSERT_EQ(s->ping_values.size(), kCount);
  for (std::uint32_t v = 0; v < kCount; ++v) {
    EXPECT_EQ(s->ping_values[v], v);
    EXPECT_EQ(s->senders[v], script_stub)
        << "ping " << v << " from " << s->senders[v].to_debug_string();
  }
  const auto comm = runtime.comm_stats().snapshot();
  EXPECT_EQ(comm.batches, 0u);
  EXPECT_EQ(comm.wire_frames, kCount);
}

TEST(ThreadRuntimeLink, GracefulExitFlushesPendingFrames) {
  // Window far longer than the test: queued messages can only arrive through
  // the graceful-exit flush.
  ThreadRuntime runtime(42, link_config(30.0));
  auto sink = std::make_unique<Sink>();
  Sink* s = sink.get();
  const auto sink_stub = runtime.add_node(std::move(sink), net::EntityKind::Daemon);

  runtime.add_node(std::make_unique<Script>([&](net::Env& env) {
                     for (std::uint32_t v = 0; v < 3; ++v) {
                       env.send(sink_stub, net::make_message(Ping{v}));
                     }
                     env.schedule(0.01, [&env] { env.shutdown_self(); });
                   }),
                   net::EntityKind::Daemon);

  wait_for([&] { return s->received.load() >= 3; });
  runtime.shutdown_all();

  ASSERT_EQ(s->ping_values.size(), 3u);
  for (std::uint32_t v = 0; v < 3; ++v) {
    EXPECT_EQ(s->ping_values[v], v);
  }
}

TEST(ThreadRuntimeLink, DefaultConfigBypassesLinkLayer) {
  ThreadRuntime runtime;  // no link config: sends go straight to mailboxes
  auto sink = std::make_unique<Sink>();
  Sink* s = sink.get();
  const auto sink_stub = runtime.add_node(std::move(sink), net::EntityKind::Daemon);

  runtime.add_node(std::make_unique<Script>([&](net::Env& env) {
                     for (std::uint64_t it = 1; it <= 4; ++it) {
                       env.send(sink_stub, task_data(0, it));
                     }
                   }),
                   net::EntityKind::Daemon);

  wait_for([&] { return s->received.load() >= 4; });
  runtime.shutdown_all();

  ASSERT_EQ(s->data_iterations.size(), 4u);  // nothing coalesced
  EXPECT_EQ(runtime.comm_stats().snapshot().enqueued, 0u);
}

}  // namespace
}  // namespace jacepp::rt
