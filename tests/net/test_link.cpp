// Unit tests for the staleness-aware link layer: latest-wins coalescing,
// one frame per message, backpressure, and the Batch envelope decoder.
#include "net/link.hpp"

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "serial/checksum.hpp"
#include "serial/serial.hpp"

namespace jacepp::net {
namespace {

// Test-local message types: one Data stream type keyed by the leading u32,
// one Control type. Mirrors how core/messages.hpp classifies TaskData.
constexpr MessageType kDataType = 9200;
constexpr MessageType kCtrlType = 9201;

Classification test_classifier(const Message& m) {
  if (m.type != kDataType) return {};
  serial::Reader r(m.body.bytes());
  const std::uint32_t key = r.u32();
  if (!r.ok()) return {};
  return Classification{DeliveryClass::Data, 0, key};
}

Message data_msg(std::uint32_t key, std::uint32_t value, std::size_t pad = 0) {
  serial::Writer w;
  w.u32(key);
  w.u32(value);
  w.bytes(serial::Bytes(pad));
  Message m;
  m.type = kDataType;
  m.body = w.take();
  return m;
}

Message ctrl_msg(std::uint32_t value) {
  serial::Writer w;
  w.u32(value);
  Message m;
  m.type = kCtrlType;
  m.body = w.take();
  return m;
}

std::uint32_t value_of(const Message& m) {
  serial::Reader r(m.body.bytes());
  if (m.type == kDataType) (void)r.u32();  // skip the stream key
  return r.u32();
}

std::vector<WireFrame> drain(Link& link) {
  std::vector<WireFrame> frames;
  while (auto frame = link.next_wire_frame()) frames.push_back(std::move(*frame));
  return frames;
}

struct Fixture {
  LinkConfig config;
  CommStats stats;
  Stub dest{7, 1, EntityKind::Daemon};

  Fixture() { config.classifier = &test_classifier; }
  Link make() { return Link(&config, &stats); }
};

TEST(Link, NullClassifierTreatsEverythingAsControl) {
  Fixture f;
  f.config.classifier = nullptr;
  Link link = f.make();
  // Same stream key three times: with no classifier nothing may coalesce.
  for (std::uint32_t v = 0; v < 3; ++v) link.enqueue(data_msg(1, v), f.dest);
  EXPECT_EQ(link.queued_messages(), 3u);
  EXPECT_EQ(f.stats.coalesced.load(), 0u);
}

TEST(Link, CoalescesLatestWinsPerKey) {
  Fixture f;
  Link link = f.make();
  link.enqueue(data_msg(1, 10), f.dest);
  link.enqueue(data_msg(1, 11), f.dest);
  link.enqueue(data_msg(1, 12), f.dest);
  EXPECT_EQ(link.queued_messages(), 1u);
  EXPECT_EQ(f.stats.coalesced.load(), 2u);

  const auto frames = drain(link);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].message.type, kDataType);
  EXPECT_EQ(value_of(frames[0].message), 12u);  // newest survives
}

TEST(Link, CoalescingPreservesQueuePosition) {
  Fixture f;
  Link link = f.make();
  link.enqueue(data_msg(1, 10), f.dest);
  link.enqueue(ctrl_msg(50), f.dest);
  link.enqueue(data_msg(1, 11), f.dest);  // replaces in place, before the ctrl

  const auto frames = drain(link);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].message.type, kDataType);
  EXPECT_EQ(value_of(frames[0].message), 11u);
  EXPECT_EQ(frames[1].message.type, kCtrlType);
}

TEST(Link, DistinctStreamKeysAreNotCoalesced) {
  Fixture f;
  Link link = f.make();
  link.enqueue(data_msg(1, 10), f.dest);
  link.enqueue(data_msg(2, 20), f.dest);
  link.enqueue(data_msg(3, 30), f.dest);
  EXPECT_EQ(link.queued_messages(), 3u);
  EXPECT_EQ(f.stats.coalesced.load(), 0u);
  EXPECT_EQ(drain(link).size(), 3u);
}

TEST(Link, CoalesceOffKeepsEveryDataMessage) {
  Fixture f;
  f.config.coalesce = false;
  Link link = f.make();
  for (std::uint32_t v = 0; v < 4; ++v) link.enqueue(data_msg(1, v), f.dest);
  EXPECT_EQ(link.queued_messages(), 4u);
  EXPECT_EQ(f.stats.coalesced.load(), 0u);
}

TEST(Link, ControlIsNeverCoalesced) {
  Fixture f;
  Link link = f.make();
  // Byte-identical control messages: each is an independent protocol event.
  for (int i = 0; i < 5; ++i) link.enqueue(ctrl_msg(1), f.dest);
  EXPECT_EQ(link.queued_messages(), 5u);
  EXPECT_EQ(f.stats.coalesced.load(), 0u);
}

// A Batch envelope whose count field claims `count` sub-messages, framed
// as the envelope format says. The CRC covers only the subframes, so it
// stays valid whatever the count.
Message batch_claiming(std::uint64_t count, const std::vector<Message>& parts) {
  serial::Writer sub;
  for (const Message& m : parts) {
    sub.varint(m.type);
    sub.bytes(m.body.bytes());
  }
  serial::Writer w;
  w.varint(count);
  w.u32(serial::crc32(sub.data()));
  w.bytes(sub.data());
  Message envelope;
  envelope.type = kBatchMessageType;
  envelope.body = w.take();
  return envelope;
}

Message batch_of(const std::vector<Message>& parts) {
  return batch_claiming(parts.size(), parts);
}

TEST(Link, BatchPackUnpackRoundTrip) {
  std::vector<Message> parts;
  for (std::uint32_t v = 0; v < 5; ++v) parts.push_back(ctrl_msg(v));
  Message envelope = batch_of(parts);
  envelope.from = Stub{3, 2, EntityKind::SuperPeer};

  std::vector<Message> out;
  ASSERT_TRUE(unpack_batch(envelope, out));
  ASSERT_EQ(out.size(), 5u);
  for (std::uint32_t v = 0; v < 5; ++v) {
    EXPECT_EQ(out[v].type, kCtrlType);
    EXPECT_EQ(value_of(out[v]), v);
    // Sub-messages inherit the envelope's sender stub.
    EXPECT_EQ(out[v].from.node, 3u);
    EXPECT_EQ(out[v].from.incarnation, 2u);
  }
}

TEST(Link, UnpackRejectsCorruptedBatch) {
  const Message envelope = batch_of({ctrl_msg(1), ctrl_msg(2)});

  // Flip one byte anywhere in the body: the CRC must catch it.
  serial::Bytes corrupt = envelope.body.bytes();
  corrupt[corrupt.size() / 2] ^= 0x40;
  Message bad;
  bad.type = envelope.type;
  bad.body = std::move(corrupt);

  std::vector<Message> out{ctrl_msg(9)};
  EXPECT_FALSE(unpack_batch(bad, out));
  EXPECT_TRUE(out.empty());  // out is cleared, never half-filled
}

TEST(Link, UnpackRejectsTruncationAndWrongType) {
  const Message envelope = batch_of({ctrl_msg(1), ctrl_msg(2)});

  serial::Bytes truncated = envelope.body.bytes();
  truncated.resize(truncated.size() - 3);
  Message short_frame;
  short_frame.type = envelope.type;
  short_frame.body = std::move(truncated);
  std::vector<Message> out;
  EXPECT_FALSE(unpack_batch(short_frame, out));

  Message not_a_batch = ctrl_msg(1);
  EXPECT_FALSE(unpack_batch(not_a_batch, out));
}

TEST(Link, UnpackRejectsInflatedSubMessageCount) {
  const std::vector<Message> parts{ctrl_msg(1), ctrl_msg(2)};
  std::vector<Message> out{ctrl_msg(9)};
  // A count no vector can reserve must be refused, not thrown on.
  EXPECT_FALSE(unpack_batch(batch_claiming(std::uint64_t{1} << 58, parts), out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(unpack_batch(batch_claiming(parts.size() + 1, parts), out));
  EXPECT_TRUE(out.empty());
  // The true count unpacks, so only the count made the difference.
  ASSERT_TRUE(unpack_batch(batch_claiming(parts.size(), parts), out));
  EXPECT_EQ(out.size(), 2u);
}

TEST(Link, SingleControlTravelsUnwrapped) {
  Fixture f;
  Link link = f.make();
  link.enqueue(ctrl_msg(42), f.dest);
  const auto frames = drain(link);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].message.type, kCtrlType);
  EXPECT_EQ(f.stats.batches.load(), 0u);
}

TEST(Link, DataTravelsAloneAndZeroCopy) {
  Fixture f;
  Link link = f.make();
  Message original = data_msg(1, 7, /*pad=*/1024);
  const Payload handle = original.body;  // keep a reference to the buffer
  link.enqueue(std::move(original), f.dest);
  link.enqueue(ctrl_msg(1), f.dest);

  const auto frames = drain(link);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].message.type, kDataType);
  // The Payload that left the producer is the Payload on the wire frame.
  EXPECT_TRUE(frames[0].message.body.shares_buffer_with(handle));
}

TEST(Link, EveryMessageLeavesAsItsOwnFrameInOrder) {
  Fixture f;
  const Stub next_incarnation{f.dest.node, 2, EntityKind::Daemon};
  Link link = f.make();
  link.enqueue(ctrl_msg(1), f.dest);
  link.enqueue(ctrl_msg(2), f.dest);
  link.enqueue(data_msg(1, 3), f.dest);
  link.enqueue(ctrl_msg(4), next_incarnation);
  link.enqueue(ctrl_msg(5), f.dest);

  const auto frames = drain(link);
  ASSERT_EQ(frames.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(value_of(frames[i].message), i + 1);
    EXPECT_EQ(frames[i].to.incarnation, i == 3 ? 2u : 1u);
  }
  EXPECT_EQ(f.stats.wire_frames.load(), 5u);
  EXPECT_EQ(f.stats.batches.load(), 0u);
}

TEST(Link, BackpressureDropsOldestDataFirst) {
  Fixture f;
  Link link = f.make();
  constexpr std::uint32_t kBudget = Link::kMaxQueueMessages;
  link.enqueue(ctrl_msg(99), f.dest);
  for (std::uint32_t k = 1; k <= kBudget; ++k) {
    link.enqueue(data_msg(k, k), f.dest);
  }

  // One over the count budget: the oldest Data (key 1) was dropped, the
  // control kept.
  EXPECT_EQ(link.queued_messages(), kBudget);
  EXPECT_EQ(f.stats.dropped_data.load(), 1u);

  const auto frames = drain(link);
  ASSERT_EQ(frames.size(), kBudget);
  EXPECT_EQ(frames[0].message.type, kCtrlType);
  for (std::uint32_t i = 1; i < kBudget; ++i) {
    EXPECT_EQ(value_of(frames[i].message), i + 1);  // key 1 is gone
  }
}

TEST(Link, BackpressureNeverDropsControlEvenOverBudget) {
  Fixture f;
  Link link = f.make();
  constexpr std::uint32_t kCount = Link::kMaxQueueMessages + 2;
  for (std::uint32_t v = 0; v < kCount; ++v) link.enqueue(ctrl_msg(v), f.dest);

  // An all-control queue exceeds its budget rather than losing protocol
  // traffic.
  EXPECT_EQ(link.queued_messages(), kCount);
  EXPECT_EQ(f.stats.dropped_data.load(), 0u);

  const auto frames = drain(link);
  ASSERT_EQ(frames.size(), kCount);
  for (std::uint32_t v = 0; v < kCount; ++v) {
    EXPECT_EQ(value_of(frames[v].message), v);
  }
}

TEST(Link, ByteBudgetDropsBulkyData) {
  Fixture f;
  Link link = f.make();
  // Each padded data message is a quarter of the byte budget plus its
  // header, so the fourth one goes over it.
  for (std::uint32_t k = 1; k <= 5; ++k) {
    link.enqueue(data_msg(k, k, /*pad=*/Link::kMaxQueueBytes / 4), f.dest);
  }
  EXPECT_GT(f.stats.dropped_data.load(), 0u);
  EXPECT_LE(link.queued_bytes(), Link::kMaxQueueBytes);
}

TEST(Link, DroppedDataKeyCanBeReenqueued) {
  Fixture f;
  Link link = f.make();
  constexpr std::uint32_t kBudget = Link::kMaxQueueMessages;
  link.enqueue(data_msg(1, 10), f.dest);
  // Keys 2..kBudget+1 fill the queue; the last one drops key 1 (oldest).
  for (std::uint32_t k = 2; k <= kBudget + 1; ++k) {
    link.enqueue(data_msg(k, k), f.dest);
  }
  link.enqueue(data_msg(1, 11), f.dest);  // key 1 returns; drops key 2

  const auto frames = drain(link);
  ASSERT_EQ(frames.size(), kBudget);
  EXPECT_EQ(value_of(frames.front().message), 3u);
  EXPECT_EQ(value_of(frames.back().message), 11u);
  EXPECT_EQ(f.stats.dropped_data.load(), 2u);
}

TEST(Link, StatsCountFramesBytesAndHighWater) {
  Fixture f;
  Link link = f.make();
  const Message big = data_msg(1, 1, /*pad=*/500);
  const std::uint64_t big_wire = big.wire_size();
  link.enqueue(big, f.dest);
  link.enqueue(ctrl_msg(2), f.dest);
  EXPECT_GE(f.stats.queue_high_water_bytes.load(), big_wire);

  const auto frames = drain(link);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(f.stats.wire_frames.load(), 2u);
  EXPECT_EQ(f.stats.wire_bytes.load(),
            big_wire + frames[1].message.wire_size());
  EXPECT_EQ(f.stats.enqueued.load(), 2u);
}

// --- canonical classifier from core/messages.hpp ------------------------

TEST(LinkClassifier, OnlyTaskDataIsDataClass) {
  using core::msg::delivery_class_of;
  for (MessageType t = 1; t <= 20; ++t) {
    const auto expected = t == core::msg::TaskData::kType
                              ? DeliveryClass::Data
                              : DeliveryClass::Control;
    EXPECT_EQ(delivery_class_of(t), expected) << "type " << t;
  }
  EXPECT_EQ(delivery_class_of(kBatchMessageType), DeliveryClass::Control);
}

TEST(LinkClassifier, TaskDataKeyPacksStreamIdentity) {
  core::msg::TaskData d;
  d.app_id = 3;
  d.from_task = 5;
  d.to_task = 6;
  d.tag = 1;
  const serial::Bytes payload(64);
  d.payload = payload;
  const Classification c = core::msg::classify_for_link(make_message(d));
  EXPECT_EQ(c.cls, DeliveryClass::Data);
  EXPECT_EQ(c.key_hi, (std::uint64_t{3} << 32) | 5u);
  EXPECT_EQ(c.key_lo, (std::uint64_t{6} << 32) | 1u);

  // Same stream, newer line: identical key (it supersedes).
  const serial::Bytes newer(64, 0x01);
  d.payload = newer;
  const Classification c2 = core::msg::classify_for_link(make_message(d));
  EXPECT_EQ(c2.key_hi, c.key_hi);
  EXPECT_EQ(c2.key_lo, c.key_lo);

  // Different tag: distinct stream, never coalesced together.
  d.tag = 0;
  const Classification c3 = core::msg::classify_for_link(make_message(d));
  EXPECT_NE(c3.key_lo, c.key_lo);
}

TEST(LinkClassifier, ControlCatalogueMessagesClassifyAsControl) {
  core::msg::Heartbeat hb;
  EXPECT_EQ(core::msg::classify_for_link(make_message(hb)).cls,
            DeliveryClass::Control);
  core::msg::SaveBackup sb;  // deliberately Control: a save dropped under
                             // backpressure leaves its holder a round behind
  EXPECT_EQ(core::msg::classify_for_link(make_message(sb)).cls,
            DeliveryClass::Control);
  core::msg::LocalStateReport lsr;
  EXPECT_EQ(core::msg::classify_for_link(make_message(lsr)).cls,
            DeliveryClass::Control);
}

TEST(LinkClassifier, LinkConfigFromCommConfigMapsKnobs) {
  core::CommConfig comm;
  comm.coalesce = false;
  comm.flush_window = 0.25;
  const LinkConfig lc = core::msg::link_config_from(comm);
  EXPECT_EQ(lc.classifier, &core::msg::classify_for_link);
  EXPECT_FALSE(lc.coalesce);
  EXPECT_DOUBLE_EQ(lc.flush_window, 0.25);
}

}  // namespace
}  // namespace jacepp::net
