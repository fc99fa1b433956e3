#include "rmi/rmi.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/link.hpp"

namespace jacepp::rmi {
namespace {

struct Alpha {
  static constexpr net::MessageType kType = 100;
  std::uint32_t value = 0;
  JACEPP_WIRE_FIELDS(value)
};

struct Beta {
  static constexpr net::MessageType kType = 101;
  std::string text;
  JACEPP_WIRE_FIELDS(text)
};

/// Env stub capturing sends.
class FakeEnv : public net::Env {
 public:
  [[nodiscard]] double now() const override { return 0.0; }
  [[nodiscard]] net::Stub self() const override { return {1, 1, net::EntityKind::Daemon}; }
  void send(const net::Stub& to, net::Message m) override {
    sent.emplace_back(to, std::move(m));
  }
  net::TimerId schedule(double, std::function<void()>) override { return 0; }
  void cancel(net::TimerId) override {}
  void compute(std::function<double()> work, std::function<void()> done) override {
    work();
    done();
  }
  Rng& rng() override { return rng_; }
  void shutdown_self() override {}

  std::vector<std::pair<net::Stub, net::Message>> sent;
  Rng rng_{1};
};

/// Actor class with a two-entry table; its handlers record what they saw.
class Recorder {
 public:
  static const Table<Recorder>& table() {
    static const Table<Recorder> table = [] {
      Table<Recorder> t;
      t.on<Alpha, &Recorder::on_alpha>();
      t.on<Beta, &Recorder::on_beta>();
      return t;
    }();
    return table;
  }

  void on_alpha(const Alpha& a, const net::Message& raw, net::Env&) {
    got_alpha = a.value;
    seen_from = raw.from;
    ++handled;
  }
  void on_beta(const Beta& b, const net::Message&, net::Env&) {
    got_beta = b.text;
    ++handled;
  }

  std::uint32_t got_alpha = 0;
  std::string got_beta;
  net::Stub seen_from;
  int handled = 0;
};

TEST(Rmi, DispatchRoutesByType) {
  const Table<Recorder>& t = Recorder::table();
  EXPECT_EQ(t.handler_count(), 2u);

  Recorder r;
  FakeEnv env;
  EXPECT_EQ(t.dispatch(r, net::make_message(Alpha{7}), env), Dispatch::Handled);
  EXPECT_EQ(t.dispatch(r, net::make_message(Beta{"hi"}), env),
            Dispatch::Handled);
  EXPECT_EQ(r.got_alpha, 7u);
  EXPECT_EQ(r.got_beta, "hi");
}

TEST(Rmi, UnknownTypeReturnsFalse) {
  Recorder r;
  FakeEnv env;
  // Inside the table but unregistered, one past its end, far beyond it, the
  // largest type, and the link layer's Batch envelope (which transports
  // unpack before any actor sees it).
  for (const net::MessageType type :
       {net::MessageType{0}, net::MessageType{99}, net::MessageType{102},
        net::MessageType{424242}, net::MessageType{0xFFFFFFFFu},
        net::kBatchMessageType}) {
    net::Message unknown;
    unknown.type = type;
    EXPECT_EQ(Recorder::table().dispatch(r, unknown, env), Dispatch::Unhandled)
        << "type " << type;
    EXPECT_FALSE(Recorder::table().handles(type)) << "type " << type;
  }
  EXPECT_EQ(r.handled, 0);
}

TEST(Rmi, HandlerSeesRawEnvelope) {
  Recorder r;
  FakeEnv env;
  auto m = net::make_message(Alpha{1});
  m.from = net::Stub{55, 2, net::EntityKind::Spawner};
  Recorder::table().dispatch(r, m, env);
  EXPECT_EQ(r.seen_from.node, 55u);
  EXPECT_EQ(r.seen_from.incarnation, 2u);
}

TEST(Rmi, InvokeSerializesAndSends) {
  FakeEnv env;
  const net::Stub to{9, 1, net::EntityKind::Daemon};
  invoke(env, to, Alpha{123});
  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(env.sent[0].first, to);
  EXPECT_EQ(env.sent[0].second.type, Alpha::kType);
  EXPECT_EQ(net::payload_of<Alpha>(env.sent[0].second).value, 123u);
}

TEST(Rmi, MalformedBodyRunsNoHandler) {
  Recorder r;
  FakeEnv env;
  net::Message truncated = net::make_message(Alpha{7});
  const serial::Bytes& full = truncated.body.bytes();
  truncated.body = serial::Bytes(full.begin(), full.end() - 1);
  EXPECT_EQ(Recorder::table().dispatch(r, truncated, env), Dispatch::Malformed);

  net::Message empty;  // a Beta needs at least its string's length
  empty.type = Beta::kType;
  EXPECT_EQ(Recorder::table().dispatch(r, empty, env), Dispatch::Malformed);
  EXPECT_EQ(r.handled, 0);
}

void register_alpha_twice() {
  Table<Recorder> t;
  t.on<Alpha, &Recorder::on_alpha>();
  t.on<Alpha, &Recorder::on_alpha>();
}

TEST(RmiDeathTest, DuplicateRegistrationAborts) {
  EXPECT_DEATH(register_alpha_twice(), "duplicate handler");
}

}  // namespace
}  // namespace jacepp::rmi
