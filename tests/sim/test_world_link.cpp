// SimWorld + link layer: coalescing, one frame per message in send order,
// wire serialization and backpressure through the full capture -> deliver
// path.
#include <gtest/gtest.h>

#include <cstring>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "sim/world.hpp"

namespace jacepp::sim {
namespace {

using core::msg::TaskData;

struct Ping {
  static constexpr net::MessageType kType = 9301;
  std::uint32_t value = 0;
  JACEPP_WIRE_FIELDS(value)
};

/// Records every delivered message plus the Payload handles, so tests can
/// assert the zero-copy invariant on what actually crossed the wire.
class LinkRecorder : public net::Actor {
 public:
  void on_start(net::Env& env) override { env_ = &env; }
  void on_message(const net::Message& m, net::Env&) override {
    types.push_back(m.type);
    senders.push_back(m.from);
    bodies.push_back(m.body);
    if (m.type == TaskData::kType) {
      const TaskData d = net::payload_of<TaskData>(m);
      std::uint64_t seq = 0;
      std::memcpy(&seq, d.payload.data(), sizeof seq);
      data_seqs.push_back(seq);
      data_tags.push_back(d.tag);
    } else if (m.type == Ping::kType) {
      ping_values.push_back(net::payload_of<Ping>(m).value);
    }
  }

  net::Env* env_ = nullptr;
  std::vector<net::MessageType> types;
  std::vector<net::Stub> senders;
  std::vector<net::Payload> bodies;
  std::vector<std::uint64_t> data_seqs;  ///< each TaskData's sequence number
  std::vector<std::uint32_t> data_tags;
  std::vector<std::uint32_t> ping_values;
};

/// A TaskData whose payload opens with `seq`, so a test can tell which
/// message of a stream arrived.
net::Message task_data(std::uint32_t tag, std::uint64_t seq,
                       std::size_t payload_bytes = 256) {
  TaskData d;
  d.app_id = 1;
  d.from_task = 0;
  d.to_task = 1;
  d.tag = tag;
  serial::Bytes payload(payload_bytes);
  std::memcpy(payload.data(), &seq, sizeof seq);
  d.payload = payload;
  return net::make_message(d);
}

SimConfig link_sim_config(core::CommConfig comm) {
  SimConfig config;
  config.message_jitter = 0.0;
  config.link = core::msg::link_config_from(comm);
  config.serialize_links = comm.serialize_links;
  return config;
}

struct TwoNodes {
  SimWorld world;
  LinkRecorder* sender;
  LinkRecorder* receiver;
  net::Stub sender_stub;
  net::Stub receiver_stub;

  explicit TwoNodes(const SimConfig& config) : world(config) {
    auto a = std::make_unique<LinkRecorder>();
    auto b = std::make_unique<LinkRecorder>();
    sender = a.get();
    receiver = b.get();
    sender_stub =
        world.add_node(std::move(a), MachineSpec{}, net::EntityKind::Daemon);
    receiver_stub =
        world.add_node(std::move(b), MachineSpec{}, net::EntityKind::Daemon);
  }
};

TEST(SimWorldLink, CoalescesSupersededDataAndKeepsZeroCopy) {
  core::CommConfig comm;
  comm.flush_window = 0.5;
  TwoNodes t(link_sim_config(comm));

  net::Message first = task_data(0, 1);
  net::Message superseded = task_data(0, 2);
  net::Message newest = task_data(0, 3);
  const net::Payload superseded_handle = superseded.body;
  const net::Payload newest_handle = newest.body;

  t.world.schedule_global(0.0, [&] {
    // First send after idle leaves immediately and opens the flush window;
    // the next two land inside it and coalesce to the newest.
    t.sender->env_->send(t.receiver_stub, std::move(first));
    t.sender->env_->send(t.receiver_stub, std::move(superseded));
    t.sender->env_->send(t.receiver_stub, std::move(newest));
  });
  t.world.run();

  ASSERT_EQ(t.receiver->data_seqs.size(), 2u);
  EXPECT_EQ(t.receiver->data_seqs[0], 1u);
  EXPECT_EQ(t.receiver->data_seqs[1], 3u);  // message 2 never crossed

  // Zero-copy across capture -> queue -> coalesce -> deliver: the delivered
  // body IS the producer's buffer, and the superseded buffer reached no one.
  ASSERT_EQ(t.receiver->bodies.size(), 2u);
  EXPECT_TRUE(t.receiver->bodies[1].shares_buffer_with(newest_handle));
  for (const net::Payload& delivered : t.receiver->bodies) {
    EXPECT_FALSE(delivered.shares_buffer_with(superseded_handle));
  }

  const auto comm_snap = t.world.comm_stats().snapshot();
  EXPECT_EQ(comm_snap.enqueued, 3u);
  EXPECT_EQ(comm_snap.coalesced, 1u);
  EXPECT_EQ(comm_snap.wire_frames, 2u);
  EXPECT_EQ(t.world.stats().sent, 3u);
  EXPECT_EQ(t.world.stats().delivered, 2u);
}

TEST(SimWorldLink, ControlBurstArrivesOnceInOrderFromItsSender) {
  core::CommConfig comm;
  comm.flush_window = 0.5;
  TwoNodes t(link_sim_config(comm));

  // The first ping leaves at once and opens the window; the other five
  // queue behind it and leave together when the window closes.
  t.world.schedule_global(0.0, [&] {
    for (std::uint32_t v = 0; v < 6; ++v) {
      t.sender->env_->send(t.receiver_stub, net::make_message(Ping{v}));
    }
  });
  t.world.run();

  // Each arrives once, in send order, and names its sender: a receiver
  // matches heartbeats and state reports to the daemon that sent them.
  ASSERT_EQ(t.receiver->ping_values.size(), 6u);
  for (std::uint32_t v = 0; v < 6; ++v) {
    EXPECT_EQ(t.receiver->ping_values[v], v);
    EXPECT_EQ(t.receiver->senders[v], t.sender_stub)
        << "ping " << v << " from " << t.receiver->senders[v].to_debug_string();
  }

  const auto comm_snap = t.world.comm_stats().snapshot();
  EXPECT_EQ(comm_snap.batches, 0u);
  EXPECT_EQ(comm_snap.wire_frames, 6u);
  EXPECT_EQ(t.world.stats().delivered, 6u);
  EXPECT_EQ(t.world.stats().delivered_by_type.at(Ping::kType), 6u);
}

TEST(SimWorldLink, JitteredDataBurstArrivesInSendOrder) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    core::CommConfig comm;
    comm.flush_window = 0.5;
    SimConfig config = link_sim_config(comm);
    config.seed = seed;
    config.message_jitter = 0.05;
    TwoNodes t(config);

    // Distinct tags are distinct streams, so nothing coalesces: sixteen
    // frames leave the link at the same instant and each draws its own
    // jitter, yet they must arrive in the order they left.
    constexpr std::uint32_t kBurst = 16;
    t.world.schedule_global(0.0, [&] {
      for (std::uint32_t tag = 0; tag < kBurst; ++tag) {
        t.sender->env_->send(t.receiver_stub, task_data(tag, 1));
      }
    });
    t.world.run();

    ASSERT_EQ(t.receiver->data_tags.size(), kBurst) << "seed " << seed;
    for (std::uint32_t tag = 0; tag < kBurst; ++tag) {
      EXPECT_EQ(t.receiver->data_tags[tag], tag) << "seed " << seed;
    }
  }
}

TEST(SimWorldLink, BatchTypedMessageReachesTheActorAsItIs) {
  core::CommConfig comm;
  comm.flush_window = 0.5;
  TwoNodes t(link_sim_config(comm));

  // A Batch-typed message is an unknown type like any other: the world
  // delivers it as it is, from its sender, and leaves it to the actor.
  t.world.schedule_global(0.0, [&] {
    net::Message m;
    m.type = net::kBatchMessageType;
    m.body = serial::Bytes{2, 0, 0, 0, 0, 0};
    t.sender->env_->send(t.receiver_stub, std::move(m));
  });
  t.world.run();

  ASSERT_EQ(t.receiver->types.size(), 1u);
  EXPECT_EQ(t.receiver->types[0], net::kBatchMessageType);
  EXPECT_EQ(t.receiver->senders[0], t.sender_stub);
}

TEST(SimWorldLink, SerializeLinksDeliversEverythingInOrder) {
  core::CommConfig comm;
  comm.serialize_links = true;  // link layer active with no flush window
  TwoNodes t(link_sim_config(comm));

  t.world.schedule_global(0.0, [&] {
    for (std::uint32_t v = 0; v < 8; ++v) {
      t.sender->env_->send(t.receiver_stub, net::make_message(Ping{v}));
    }
  });
  t.world.run();

  ASSERT_EQ(t.receiver->ping_values.size(), 8u);
  for (std::uint32_t v = 0; v < 8; ++v) {
    EXPECT_EQ(t.receiver->ping_values[v], v);
  }
}

TEST(SimWorldLink, SlowWireCoalescesBacklogUnderSerialization) {
  core::CommConfig comm;
  comm.serialize_links = true;
  SimConfig config = link_sim_config(comm);
  TwoNodes t(config);

  // Large payloads occupy the serialized wire long enough that later sends
  // queue behind the first frame — and a queued stream coalesces.
  t.world.schedule_global(0.0, [&] {
    for (std::uint64_t it = 1; it <= 10; ++it) {
      t.sender->env_->send(t.receiver_stub,
                           task_data(0, it, /*payload_bytes=*/200000));
    }
  });
  t.world.run();

  // The newest message always arrives; most of the backlog never hits the wire.
  ASSERT_FALSE(t.receiver->data_seqs.empty());
  EXPECT_EQ(t.receiver->data_seqs.back(), 10u);
  EXPECT_LT(t.receiver->data_seqs.size(), 10u);
  EXPECT_GT(t.world.comm_stats().snapshot().coalesced, 0u);
}

TEST(SimWorldLink, BackpressureDropsDataButNeverControl) {
  core::CommConfig comm;
  comm.flush_window = 10.0;  // long window: the queue builds up
  comm.coalesce = false;     // distinct entries so the count budget bites
  TwoNodes t(link_sim_config(comm));

  constexpr std::uint32_t kData = net::Link::kMaxQueueMessages;
  t.world.schedule_global(0.0, [&] {
    // Opens the window (leaves immediately).
    t.sender->env_->send(t.receiver_stub, net::make_message(Ping{100}));
    // A full budget of data, then 5 control, queue inside the window; the
    // count budget forces 5 drops, which must all fall on data.
    for (std::uint32_t i = 0; i < kData; ++i) {
      t.sender->env_->send(t.receiver_stub, task_data(0, i + 1));
    }
    for (std::uint32_t v = 0; v < 5; ++v) {
      t.sender->env_->send(t.receiver_stub, net::make_message(Ping{v}));
    }
  });
  t.world.run();

  // Every control message arrived, in order.
  ASSERT_EQ(t.receiver->ping_values.size(), 6u);
  EXPECT_EQ(t.receiver->ping_values[0], 100u);
  for (std::uint32_t v = 0; v < 5; ++v) {
    EXPECT_EQ(t.receiver->ping_values[v + 1], v);
  }
  // Data was sacrificed to the budget, oldest first.
  ASSERT_EQ(t.receiver->data_seqs.size(), kData - 5);
  EXPECT_EQ(t.receiver->data_seqs.front(), 6u);
  EXPECT_EQ(t.world.comm_stats().snapshot().dropped_data, 5u);
}

TEST(SimWorldLink, CrashedSenderQueuesDieWithIt) {
  core::CommConfig comm;
  comm.flush_window = 1.0;
  TwoNodes t(link_sim_config(comm));

  t.world.schedule_global(0.0, [&] {
    t.sender->env_->send(t.receiver_stub, net::make_message(Ping{1}));
    t.sender->env_->send(t.receiver_stub, net::make_message(Ping{2}));
  });
  // Crash inside the flush window: the queued second ping must vanish.
  t.world.schedule_global(0.5, [&] { t.world.disconnect(1); });
  t.world.run();

  ASSERT_EQ(t.receiver->ping_values.size(), 1u);
  EXPECT_EQ(t.receiver->ping_values[0], 1u);
}

TEST(SimWorldLink, InactiveLinkLayerBypassesQueues) {
  // Default CommConfig: no flush window, no serialization — the link layer
  // must stay dormant and every message go straight to the wire.
  TwoNodes t(link_sim_config(core::CommConfig{}));
  EXPECT_FALSE(t.world.link_layer_active());

  t.world.schedule_global(0.0, [&] {
    for (std::uint64_t it = 1; it <= 3; ++it) {
      t.sender->env_->send(t.receiver_stub, task_data(0, it));
    }
  });
  t.world.run();

  ASSERT_EQ(t.receiver->data_seqs.size(), 3u);
  EXPECT_EQ(t.world.comm_stats().snapshot().enqueued, 0u);
}

}  // namespace
}  // namespace jacepp::sim
