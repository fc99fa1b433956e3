// Golden wire vectors: one sample per wire struct, with every field set to a
// non-default value, pinned to the exact bytes it encodes to. Any change to a
// field's order or encoding fails here. Each vector must also decode back to
// the sample (compared through its re-encoding, which covers every member)
// with the reader exhausted, and every strict prefix must poison the reader.
// A protocol message's strict prefixes are also delivered to every actor class
// that handles its type: each must be dropped at dispatch, running no handler
// and not aborting, since a peer can send any bytes. The hand-written codecs
// are pinned at the end: the checkpoint frame's bytes, decode of its golden
// and rejection of every strict prefix, and the same decode and prefix
// rejection for a pinned link Batch envelope.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/app.hpp"
#include "core/checkpoint.hpp"
#include "core/daemon.hpp"
#include "core/generic_task.hpp"
#include "core/messages.hpp"
#include "core/spawner.hpp"
#include "core/super_peer.hpp"
#include "linalg/csr.hpp"
#include "net/env.hpp"
#include "net/link.hpp"
#include "net/message.hpp"
#include "net/stub.hpp"
#include "poisson/block_task.hpp"
#include "rmi/rmi.hpp"
#include "serial/serial.hpp"
#include "support/logging.hpp"

namespace jacepp::core {
namespace {

std::string to_hex(const serial::Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

serial::Bytes from_hex(std::string_view hex) {
  const auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  serial::Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

template <typename T>
void expect_truncations_dropped(const serial::Bytes& golden);

template <typename T>
void expect_golden(const T& sample, std::string_view hex) {
  EXPECT_EQ(to_hex(serial::encode(sample)), hex);

  const serial::Bytes golden = from_hex(hex);
  // encode() reserves this size up front, so it must be exact.
  EXPECT_EQ(serial::Writer::object_size(sample), golden.size());
  serial::Reader reader(golden);
  const T decoded = reader.object<T>();
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_TRUE(reader.exhausted()) << reader.remaining() << " bytes left";
  EXPECT_EQ(to_hex(serial::encode(decoded)), hex);

  for (std::size_t len = 0; len < golden.size(); ++len) {
    serial::Reader prefix(golden.data(), len);
    (void)prefix.object<T>();
    EXPECT_FALSE(prefix.ok()) << "prefix of " << len << " bytes decoded";
  }
  if constexpr (requires { T::kType; }) expect_truncations_dropped<T>(golden);
}

net::Stub daemon_stub(std::uint64_t node) {
  return net::Stub{node, 0x11223344, net::EntityKind::Daemon};
}
net::Stub super_peer_stub() {
  return net::Stub{0x0102030405060708, 7, net::EntityKind::SuperPeer};
}
net::Stub spawner_stub() {
  return net::Stub{0x0a0b0c0d, 3, net::EntityKind::Spawner};
}

AppDescriptor sample_app() {
  AppDescriptor app;
  app.app_id = 42;
  app.program = "poisson";
  app.config = {1, 2, 3, 0xff};
  app.task_count = 8;
  app.checkpoint_every = 6;
  app.backup_peer_count = 3;
  app.convergence_threshold = 1e-7;
  app.stable_iterations_required = 4;
  return app;
}

AppRegister sample_register() {
  AppRegister reg;
  reg.app_id = 42;
  reg.version = 9;
  reg.spawner = spawner_stub();
  reg.tasks = {{5, daemon_stub(100)}, {6, daemon_stub(101)}};
  return reg;
}

// --- Truncated messages at the actors ---------------------------------------

/// Env that counts every request an actor makes of it.
class CountingEnv : public net::Env {
 public:
  [[nodiscard]] double now() const override { return 1.0; }
  [[nodiscard]] net::Stub self() const override { return daemon_stub(1); }
  void send(const net::Stub&, net::Message) override { ++requests; }
  net::TimerId schedule(double, std::function<void()>) override {
    ++requests;
    return 1;
  }
  void cancel(net::TimerId) override { ++requests; }
  void compute(std::function<double()>, std::function<void()>) override {
    ++requests;
  }
  Rng& rng() override { return rng_; }
  void shutdown_self() override { ++requests; }

  std::size_t requests = 0;
  Rng rng_{1};
};

/// Delivers every strict prefix of `golden`, as the body of a `type` message,
/// to a started `actor` through on_message. Each must run no handler: the
/// actor asks nothing of its Env, and its class's table reports the body
/// Malformed. Returns whether the class handles `type` at all.
template <typename A>
bool expect_prefixes_dropped(A& actor, CountingEnv& env, net::MessageType type,
                             const serial::Bytes& golden) {
  if (!A::table().handles(type)) return false;
  for (std::size_t len = 0; len < golden.size(); ++len) {
    net::Message m;
    m.type = type;
    m.from = daemon_stub(9);
    m.body = serial::Bytes(golden.begin(),
                           golden.begin() + static_cast<std::ptrdiff_t>(len));
    const std::size_t requests = env.requests;
    actor.on_message(m, env);
    EXPECT_EQ(env.requests, requests)
        << "prefix of " << len << " bytes reached a handler";
    EXPECT_EQ(A::table().dispatch(actor, m, env), rmi::Dispatch::Malformed)
        << "prefix of " << len << " bytes";
  }
  return true;
}

template <typename T>
void expect_truncations_dropped(const serial::Bytes& golden) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Error);  // each dropped prefix logs a warning
  CountingEnv env;
  Daemon daemon({super_peer_stub()});
  SuperPeer super_peer;
  Spawner spawner(sample_app(), {super_peer_stub()}, nullptr);
  daemon.on_start(env);
  super_peer.on_start(env);
  spawner.on_start(env);
  int classes = 0;
  classes += expect_prefixes_dropped(daemon, env, T::kType, golden) ? 1 : 0;
  classes += expect_prefixes_dropped(super_peer, env, T::kType, golden) ? 1 : 0;
  classes += expect_prefixes_dropped(spawner, env, T::kType, golden) ? 1 : 0;
  EXPECT_GT(classes, 0) << "no actor class handles message type " << T::kType;
  set_log_level(saved);
}

// --- Wire structs nested in messages ---------------------------------------

TEST(WireGolden, Stub) {
  expect_golden(super_peer_stub(),
      "08070605040302010700000002");
}

TEST(WireGolden, AppDescriptor) {
  expect_golden(sample_app(),
      "2a00000007706f6973736f6e04010203ff08000000060000000300000048afbc"
      "9af2d77a3e04000000");
}

TEST(WireGolden, TaskEntry) {
  expect_golden(TaskEntry{5, daemon_stub(100)},
      "0500000064000000000000004433221101");
}

TEST(WireGolden, AppRegister) {
  expect_golden(sample_register(),
      "2a00000009000000000000000d0c0b0a00000000030000000302050000006400"
      "00000000000044332211010600000065000000000000004433221101");
}

// --- Program configs carried in AppDescriptor::config ----------------------

TEST(WireGolden, PoissonConfig) {
  poisson::PoissonConfig c;
  c.n = 48;
  c.overlap_lines = 1;
  c.inner_tolerance = 1e-9;
  c.inner_max_iterations = 321;
  c.rhs_kind = 1;
  c.rhs_seed = 0xdeadbeefcafef00d;
  c.work_scale = 2.5;
  expect_golden(c,
      "300000000100000095d626e80b2e113e41010000010000000df0fecaefbeadde"
      "0000000000000440");
}

TEST(WireGolden, GenericConfig) {
  linalg::CsrBuilder builder(2, 2);
  builder.add(0, 0, 4.0);
  builder.add(0, 1, -1.0);
  builder.add(1, 0, -1.0);
  builder.add(1, 1, 4.0);
  GenericConfig c;
  c.a = builder.build();
  c.b = {1.0, 2.0};
  c.inner_tolerance = 1e-10;
  c.inner_max_iterations = 77;
  c.work_scale = 3.0;
  expect_golden(c,
      "0202030000000002000000040000000400000000010000000000000001000000"
      "040000000000001040000000000000f0bf000000000000f0bf00000000000010"
      "4002000000000000f03f0000000000000040bbbdd7d9df7cdb3d4d0000000000"
      "000000000840");
}

// --- Protocol messages (core/messages.hpp) ---------------------------------

TEST(WireGolden, RegisterDaemon) {
  expect_golden(msg::RegisterDaemon{daemon_stub(100)},
      "64000000000000004433221101");
}

TEST(WireGolden, RegisterAck) {
  expect_golden(msg::RegisterAck{super_peer_stub()},
      "08070605040302010700000002");
}

TEST(WireGolden, LinkSuperPeers) {
  expect_golden(msg::LinkSuperPeers{{super_peer_stub(), daemon_stub(102)}},
      "020807060504030201070000000266000000000000004433221101");
}

TEST(WireGolden, Heartbeat) { expect_golden(msg::Heartbeat{}, ""); }

TEST(WireGolden, HeartbeatAck) { expect_golden(msg::HeartbeatAck{}, ""); }

TEST(WireGolden, ReserveRequest) {
  msg::ReserveRequest m;
  m.request_id = 0x01020304;
  m.count = 4;
  m.requester = spawner_stub();
  m.visited = {super_peer_stub(), daemon_stub(103)};
  expect_golden(m,
      "04030201040000000d0c0b0a0000000003000000030208070605040302010700"
      "00000267000000000000004433221101");
}

TEST(WireGolden, ReserveReply) {
  msg::ReserveReply m;
  m.request_id = 0x01020304;
  m.daemons = {daemon_stub(100), daemon_stub(101)};
  m.exhausted = true;
  expect_golden(m,
      "0403020102640000000000000044332211016500000000000000443322110101");
}

TEST(WireGolden, Reserved) {
  expect_golden(msg::Reserved{spawner_stub()},
      "0d0c0b0a000000000300000003");
}

TEST(WireGolden, TaskAssignment) {
  msg::TaskAssignment m;
  m.app = sample_app();
  m.task_id = 5;
  m.reg = sample_register();
  m.restart = true;
  m.finalize_only = true;
  expect_golden(m,
      "2a00000007706f6973736f6e04010203ff08000000060000000300000048afbc"
      "9af2d77a3e04000000050000002a00000009000000000000000d0c0b0a000000"
      "0003000000030205000000640000000000000044332211010600000065000000"
      "0000000044332211010101");
}

TEST(WireGolden, RegisterUpdate) {
  expect_golden(msg::RegisterUpdate{sample_register()},
      "2a00000009000000000000000d0c0b0a00000000030000000302050000006400"
      "00000000000044332211010600000065000000000000004433221101");
}

TEST(WireGolden, TaskData) {
  msg::TaskData m;
  m.app_id = 42;
  m.from_task = 5;
  m.to_task = 6;
  m.tag = 1;
  m.iteration = 0x0102030405;
  const serial::Bytes line{9, 8, 7};
  m.payload = line;
  expect_golden(m, "2a000000050000000600000001000000050403020100000003090807");

  // Decoded from a message, the payload is a view into the message's body:
  // the line is not copied out.
  const net::Message message = net::make_message(m);
  const msg::TaskData decoded = net::payload_of<msg::TaskData>(message);
  const serial::Bytes& body = message.body.bytes();
  ASSERT_EQ(decoded.payload.size(), line.size());
  EXPECT_EQ(decoded.payload.data(), body.data() + body.size() - line.size());
  EXPECT_TRUE(std::equal(line.begin(), line.end(), decoded.payload.begin()));
}

TEST(WireGolden, SaveBackup) {
  msg::SaveBackup m;
  m.app_id = 42;
  m.task_id = 5;
  m.iteration = 77;
  const serial::Bytes frame{0xaa, 0xbb, 0xcc};
  m.state = frame;
  expect_golden(m, "2a000000050000004d0000000000000003aabbcc");
}

TEST(WireGolden, QueryBackup) {
  expect_golden(msg::QueryBackup{42, 5},
      "2a00000005000000");
}

TEST(WireGolden, BackupInfo) {
  msg::BackupInfo m;
  m.app_id = 42;
  m.task_id = 5;
  m.available = true;
  m.iteration = 77;
  expect_golden(m, "2a00000005000000014d00000000000000");
}

TEST(WireGolden, FetchBackup) {
  expect_golden(msg::FetchBackup{42, 5},
      "2a00000005000000");
}

TEST(WireGolden, BackupData) {
  msg::BackupData m;
  m.app_id = 42;
  m.task_id = 5;
  m.iteration = 77;
  const serial::Bytes frame{0xaa, 0xbb, 0xcc};
  m.state = frame;
  expect_golden(m, "2a000000050000004d0000000000000003aabbcc");
}

TEST(WireGolden, LocalStateReport) {
  msg::LocalStateReport m;
  m.app_id = 42;
  m.task_id = 5;
  m.stable = true;
  m.iteration = 77;
  expect_golden(m, "2a00000005000000014d00000000000000");
}

TEST(WireGolden, GlobalHalt) { expect_golden(msg::GlobalHalt{42}, "2a000000"); }

TEST(WireGolden, FinalState) {
  msg::FinalState m;
  m.app_id = 42;
  m.task_id = 5;
  m.iteration = 77;
  m.informative_iterations = 70;
  m.payload = {1, 2, 3, 4, 5};
  expect_golden(m,
      "2a000000050000004d000000000000004600000000000000050102030405");
}

TEST(WireGolden, AppRegisterReplica) {
  expect_golden(msg::AppRegisterReplica{sample_register()},
      "2a00000009000000000000000d0c0b0a00000000030000000302050000006400"
      "00000000000044332211010600000065000000000000004433221101");
}

TEST(WireGolden, FetchAppRegister) {
  expect_golden(msg::FetchAppRegister{42}, "2a000000");
}

TEST(WireGolden, AppRegisterSnapshot) {
  msg::AppRegisterSnapshot m;
  m.available = true;
  m.reg = sample_register();
  expect_golden(m,
      "012a00000009000000000000000d0c0b0a000000000300000003020500000064"
      "0000000000000044332211010600000065000000000000004433221101");
}

TEST(WireGolden, StateProbe) { expect_golden(msg::StateProbe{42}, "2a000000"); }

TEST(WireGolden, AuditChallenge) {
  msg::AuditChallenge m;
  m.app = sample_app();
  m.task_id = 5;
  m.round = 2;
  m.nonce = 0x0102030405060708;
  m.iterations = 12;
  expect_golden(m,
      "2a00000007706f6973736f6e04010203ff08000000060000000300000048afbc"
      "9af2d77a3e04000000050000000200000008070605040302010c000000");
}

TEST(WireGolden, AuditReply) {
  msg::AuditReply m;
  m.app_id = 42;
  m.task_id = 5;
  m.round = 2;
  m.nonce = 0x0102030405060708;
  m.digest = 0xfedcba9876543210;
  expect_golden(m, "2a000000050000000200000008070605040302011032547698badcfe");
}

TEST(WireGolden, ReputationReport) {
  msg::ReputationReport m;
  m.node = 0x0102030405060708;
  m.kind = msg::ReputationReport::Liar;
  m.value = 0.75;
  expect_golden(m, "080706050403020102000000000000e83f");
}

TEST(WireGolden, BackupPlacement) {
  msg::BackupPlacement m;
  m.app_id = 42;
  m.version = 9;
  m.ranking = {6, 5, 7};
  expect_golden(m, "2a000000090000000000000003060000000500000007000000");
}

// --- Hand-written codecs (checkpoint frames, link Batch envelope) -----------

/// 40 bytes, no two alike.
serial::Bytes sample_state() {
  serial::Bytes state(40);
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return state;
}

/// Pins a checkpoint frame's bytes, and checks that decode_frame accepts the
/// golden and rejects every strict prefix of it.
void expect_frame_golden(const serial::Bytes& frame, std::string_view hex) {
  EXPECT_EQ(to_hex(frame), hex);
  const serial::Bytes golden = from_hex(hex);
  EXPECT_TRUE(checkpoint::decode_frame(golden).has_value());
  for (std::size_t len = 0; len < golden.size(); ++len) {
    const serial::Bytes prefix(
        golden.begin(), golden.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(checkpoint::decode_frame(prefix).has_value())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireGolden, FullCheckpointFrame) {
  const serial::Bytes state = sample_state();
  const serial::Bytes frame =
      checkpoint::encode_full_frame(0x0102030405, 16, state);
  expect_frame_golden(frame,
      "0085888c9010001028787e7e83280b30557a9fc4e90e33587da2c7ec11365b80"
      "a5caef14395e83a8cdf2173c6186abd0f51a3f6489ae3433b1f0");
  const auto decoded = checkpoint::decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->baseline_id, 0x0102030405u);
  EXPECT_EQ(decoded->full_state, state);
}

TEST(WireGolden, LinkBatchEnvelope) {
  // Three sub-messages: type 7 with body 010203, type 300 (a two-byte
  // varint) with an empty body, and type 0xB47C0001 (a five-byte varint)
  // with body ff.
  std::vector<net::Message> parts(3);
  parts[0].type = 7;
  parts[0].body = serial::Bytes{1, 2, 3};
  parts[1].type = 300;
  parts[2].type = 0xB47C0001u;
  parts[2].body = serial::Bytes{0xff};
  net::Message envelope;
  envelope.type = net::kBatchMessageType;
  envelope.body = from_hex("03e1e8191a0f0703010203ac02008180f0a30b01ff");

  std::vector<net::Message> unpacked;
  ASSERT_TRUE(net::unpack_batch(envelope, unpacked));
  ASSERT_EQ(unpacked.size(), parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(unpacked[i].type, parts[i].type);
    EXPECT_EQ(unpacked[i].body.bytes(), parts[i].body.bytes());
  }
  const serial::Bytes golden = envelope.body.bytes();
  for (std::size_t len = 0; len < golden.size(); ++len) {
    net::Message prefix;
    prefix.type = net::kBatchMessageType;
    prefix.body = serial::Bytes(
        golden.begin(), golden.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(net::unpack_batch(prefix, unpacked))
        << "prefix of " << len << " bytes unpacked";
  }
}

}  // namespace
}  // namespace jacepp::core
