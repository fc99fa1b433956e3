#include "rmi/rmi.hpp"

#include <gtest/gtest.h>

#include <vector>

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

TEST(Rmi, DispatchRoutesByType) {
  Dispatcher d;
  std::uint32_t got_alpha = 0;
  std::string got_beta;
  d.on<Alpha>([&](const Alpha& a, const net::Message&, net::Env&) {
    got_alpha = a.value;
  });
  d.on<Beta>([&](const Beta& b, const net::Message&, net::Env&) {
    got_beta = b.text;
  });
  EXPECT_EQ(d.handler_count(), 2u);

  FakeEnv env;
  EXPECT_TRUE(d.dispatch(net::make_message(Alpha{7}), env));
  EXPECT_TRUE(d.dispatch(net::make_message(Beta{"hi"}), env));
  EXPECT_EQ(got_alpha, 7u);
  EXPECT_EQ(got_beta, "hi");
}

TEST(Rmi, UnknownTypeReturnsFalse) {
  Dispatcher d;
  FakeEnv env;
  net::Message unknown;
  unknown.type = 424242;
  EXPECT_FALSE(d.dispatch(unknown, env));
}

TEST(Rmi, HandlerSeesRawEnvelope) {
  Dispatcher d;
  net::Stub seen_from;
  d.on<Alpha>([&](const Alpha&, const net::Message& raw, net::Env&) {
    seen_from = raw.from;
  });
  FakeEnv env;
  auto m = net::make_message(Alpha{1});
  m.from = net::Stub{55, 2, net::EntityKind::Spawner};
  d.dispatch(m, env);
  EXPECT_EQ(seen_from.node, 55u);
  EXPECT_EQ(seen_from.incarnation, 2u);
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

}  // namespace
}  // namespace jacepp::rmi
