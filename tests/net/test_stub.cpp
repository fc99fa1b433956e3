#include "net/stub.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "net/message.hpp"

namespace jacepp::net {
namespace {

TEST(Stub, DefaultIsInvalid) {
  Stub s;
  EXPECT_FALSE(s.valid());
  EXPECT_EQ(s.node, kInvalidNode);
}

TEST(Stub, EqualityIgnoresKind) {
  Stub a{5, 1, EntityKind::Daemon};
  Stub b{5, 1, EntityKind::SuperPeer};
  Stub c{5, 2, EntityKind::Daemon};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Stub, AddressFormMatchesNodeOnly) {
  Stub s{7, 3, EntityKind::Daemon};
  const Stub addr = s.address();
  EXPECT_EQ(addr.node, 7u);
  EXPECT_EQ(addr.incarnation, 0u);
  EXPECT_EQ(addr.kind, EntityKind::Daemon);
}

TEST(Stub, SerializationRoundTrip) {
  Stub s{0x123456789abcdefULL, 42, EntityKind::Spawner};
  const auto bytes = serial::encode(s);
  const Stub t = serial::decode<Stub>(bytes);
  EXPECT_EQ(t, s);
  EXPECT_EQ(t.kind, EntityKind::Spawner);
}

TEST(Stub, HashAndOrderingUsableInContainers) {
  std::unordered_set<Stub> set;
  set.insert(Stub{1, 1, EntityKind::Daemon});
  set.insert(Stub{1, 2, EntityKind::Daemon});
  set.insert(Stub{1, 1, EntityKind::SuperPeer});  // duplicate of first
  EXPECT_EQ(set.size(), 2u);

  Stub a{1, 1, EntityKind::Daemon};
  Stub b{2, 0, EntityKind::Daemon};
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
}

TEST(Stub, DebugStringMentionsKindAndIds) {
  Stub s{9, 2, EntityKind::SuperPeer};
  const auto str = s.to_debug_string();
  EXPECT_NE(str.find("super-peer"), std::string::npos);
  EXPECT_NE(str.find('9'), std::string::npos);
  EXPECT_NE(str.find('2'), std::string::npos);
}

struct Sample {
  static constexpr MessageType kType = 777;
  std::uint64_t value = 0;
  JACEPP_WIRE_FIELDS(value)
};

TEST(Message, MakeAndDecode) {
  const auto m = make_message(Sample{0xfeedULL});
  EXPECT_EQ(m.type, 777u);
  EXPECT_EQ(payload_of<Sample>(m).value, 0xfeedULL);
}

TEST(Message, WireSizeIncludesEnvelope) {
  const auto m = make_message(Sample{1});
  EXPECT_GT(m.wire_size(), m.body.size());
}

TEST(Message, CopiesShareOneBodyBuffer) {
  // The zero-copy invariant: forwarding a message through the router / event
  // queue / mailboxes copies the envelope but never the payload bytes.
  const auto m = make_message(Sample{42});
  const Message forwarded = m;           // router copy
  const Message again = forwarded;       // second hop
  EXPECT_TRUE(m.body.shares_buffer_with(forwarded.body));
  EXPECT_TRUE(m.body.shares_buffer_with(again.body));
  EXPECT_EQ(&m.body.bytes(), &again.body.bytes());
  EXPECT_EQ(payload_of<Sample>(again).value, 42u);
}

TEST(Message, DefaultBodyIsEmptyAndUnshared) {
  Payload a;
  Payload b;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_FALSE(a.shares_buffer_with(b));  // no buffer at all
  EXPECT_TRUE(a.bytes().empty());
}

}  // namespace
}  // namespace jacepp::net
