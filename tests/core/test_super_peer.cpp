// Protocol-level Super-Peer scenarios in the simulator.
#include <gtest/gtest.h>

#include <string>

#include "core/daemon.hpp"
#include "core/messages.hpp"
#include "core/super_peer.hpp"
#include "rmi/rmi.hpp"
#include "sim/world.hpp"

namespace jacepp::core {
namespace {

/// Harness actor playing the Spawner side of the reservation protocol.
class ReserveProbe : public net::Actor {
 public:
  void on_start(net::Env& env) override { env_ = &env; }
  void on_message(const net::Message& m, net::Env&) override {
    if (m.type == msg::ReserveReply::kType) {
      const auto reply = net::payload_of<msg::ReserveReply>(m);
      for (const auto& d : reply.daemons) granted.push_back(d);
      if (reply.exhausted) exhausted = true;
      ++replies;
    } else if (m.type == msg::Heartbeat::kType) {
      ++heartbeats;  // a computing daemon heartbeats its spawner
    }
  }
  void request(const net::Stub& sp, std::uint32_t count) {
    msg::ReserveRequest req;
    req.request_id = 1;
    req.count = count;
    req.requester = env_->self();
    rmi::invoke(*env_, sp, req);
  }
  /// Assign task 0 of a one-task application running `program`.
  void assign(const net::Stub& daemon, const std::string& program) {
    msg::TaskAssignment assignment;
    assignment.app.app_id = 1;
    assignment.app.program = program;
    assignment.app.task_count = 1;
    assignment.reg.app_id = 1;
    assignment.reg.spawner = env_->self();
    assignment.reg.tasks = {TaskEntry{0, daemon}};
    rmi::invoke(*env_, daemon, assignment);
  }

  net::Env* env_ = nullptr;
  std::vector<net::Stub> granted;
  int replies = 0;
  int heartbeats = 0;
  bool exhausted = false;
};

struct Scenario {
  static sim::SimConfig sim_config(std::uint64_t seed) {
    sim::SimConfig c;
    c.seed = seed;
    c.max_time = 1e6;
    return c;
  }

  sim::SimWorld world;
  std::vector<SuperPeer*> sps;
  std::vector<net::Stub> sp_stubs;
  std::vector<net::Stub> sp_addresses;

  explicit Scenario(std::size_t sp_count, std::uint64_t seed = 1)
      : world(sim_config(seed)) {
    for (std::size_t i = 0; i < sp_count; ++i) {
      auto sp = std::make_unique<SuperPeer>();
      sps.push_back(sp.get());
      const auto stub = world.add_node(std::move(sp),
                                       sim::MachineSpec::super_peer_class(),
                                       net::EntityKind::SuperPeer);
      sp_stubs.push_back(stub);
      sp_addresses.push_back(stub.address());
    }
    for (auto* sp : sps) sp->set_linked_peers(sp_stubs);
  }

  Daemon* add_daemon() {
    auto daemon = std::make_unique<Daemon>(sp_addresses);
    Daemon* raw = daemon.get();
    daemon_stubs.push_back(world.add_node(std::move(daemon), sim::MachineSpec{},
                                          net::EntityKind::Daemon));
    return raw;
  }

  std::vector<net::Stub> daemon_stubs;
};

TEST(SuperPeer, RegistersDaemonsAndAcks) {
  Scenario s(1);
  auto* d1 = s.add_daemon();
  auto* d2 = s.add_daemon();
  s.world.run_until(2.0);
  EXPECT_EQ(s.sps[0]->registered_count(), 2u);
  EXPECT_EQ(d1->state(), Daemon::State::Registered);
  EXPECT_EQ(d2->state(), Daemon::State::Registered);
}

TEST(SuperPeer, SweepsSilentDaemons) {
  Scenario s(1);
  s.add_daemon();
  s.world.run_until(2.0);
  ASSERT_EQ(s.sps[0]->registered_count(), 1u);
  s.world.disconnect(s.daemon_stubs[0].node);
  s.world.run_until(10.0);
  EXPECT_EQ(s.sps[0]->registered_count(), 0u);
  EXPECT_EQ(s.sps[0]->daemons_swept(), 1u);
}

TEST(SuperPeer, HeartbeatKeepsDaemonRegistered) {
  Scenario s(1);
  s.add_daemon();
  // Far beyond the timeout: heartbeats must keep the entry alive.
  s.world.run_until(30.0);
  EXPECT_EQ(s.sps[0]->registered_count(), 1u);
  EXPECT_EQ(s.sps[0]->daemons_swept(), 0u);
}

TEST(SuperPeer, ServesReservationLocally) {
  Scenario s(1);
  s.add_daemon();
  s.add_daemon();
  auto probe = std::make_unique<ReserveProbe>();
  ReserveProbe* p = probe.get();
  s.world.add_node(std::move(probe), sim::MachineSpec{}, net::EntityKind::Spawner);
  s.world.run_until(2.0);
  s.world.schedule_global(0.0, [&] { p->request(s.sp_stubs[0], 2); });
  s.world.run_until(4.0);
  EXPECT_EQ(p->granted.size(), 2u);
  EXPECT_FALSE(p->exhausted);
  // Reserved daemons leave the register (paper Figure 2).
  EXPECT_EQ(s.sps[0]->registered_count(), 0u);
  EXPECT_EQ(s.sps[0]->reservations_served(), 2u);
}

TEST(SuperPeer, ForwardsShortfallToLinkedPeer) {
  Scenario s(2, /*seed=*/3);
  // Force distribution: daemons pick SPs randomly; run until both SPs have at
  // least one registration, retrying seeds is avoided by just adding enough.
  for (int i = 0; i < 6; ++i) s.add_daemon();
  s.world.run_until(2.0);
  ASSERT_EQ(s.sps[0]->registered_count() + s.sps[1]->registered_count(), 6u);
  ASSERT_GT(s.sps[0]->registered_count(), 0u);
  ASSERT_GT(s.sps[1]->registered_count(), 0u);

  auto probe = std::make_unique<ReserveProbe>();
  ReserveProbe* p = probe.get();
  s.world.add_node(std::move(probe), sim::MachineSpec{}, net::EntityKind::Spawner);
  s.world.run_until(2.5);
  s.world.schedule_global(0.0, [&] { p->request(s.sp_stubs[0], 6); });
  s.world.run_until(5.0);
  // All six granted even though SP0 alone could not serve the request.
  EXPECT_EQ(p->granted.size(), 6u);
  EXPECT_GE(s.sps[0]->requests_forwarded(), 1u);
  EXPECT_GE(p->replies, 2);  // replies came from both super-peers
}

TEST(SuperPeer, ReportsExhaustionWhenOverlayEmpty) {
  Scenario s(2, 5);
  s.add_daemon();
  s.world.run_until(2.0);
  auto probe = std::make_unique<ReserveProbe>();
  ReserveProbe* p = probe.get();
  s.world.add_node(std::move(probe), sim::MachineSpec{}, net::EntityKind::Spawner);
  s.world.run_until(2.5);
  s.world.schedule_global(0.0, [&] { p->request(s.sp_stubs[0], 5); });
  s.world.run_until(5.0);
  // One daemon granted; the rest cannot be served anywhere.
  EXPECT_EQ(p->granted.size(), 1u);
  EXPECT_TRUE(p->exhausted);
}

TEST(SuperPeer, ReservedDaemonFallsBackToRegistered) {
  // A daemon reserved by a spawner that never sends a task re-registers
  // after reserved_timeout.
  Scenario s(1, 7);
  auto* d = s.add_daemon();
  auto probe = std::make_unique<ReserveProbe>();
  ReserveProbe* p = probe.get();
  s.world.add_node(std::move(probe), sim::MachineSpec{}, net::EntityKind::Spawner);
  s.world.run_until(2.0);
  s.world.schedule_global(0.0, [&] { p->request(s.sp_stubs[0], 1); });
  s.world.run_until(4.0);
  EXPECT_EQ(d->state(), Daemon::State::Reserved);
  // Default reserved_timeout is 6 s; after it, the daemon re-bootstraps.
  s.world.run_until(15.0);
  EXPECT_EQ(d->state(), Daemon::State::Registered);
  EXPECT_EQ(s.sps[0]->registered_count(), 1u);
}

TEST(SuperPeer, UnknownTaskProgramIsRefusedAndDaemonRejoinsPool) {
  // The program name comes from the spawner's message: a name this daemon
  // cannot run is refused without touching its state, so the reservation
  // lapses like one that never turned into a task.
  Scenario s(1, 7);
  auto* d = s.add_daemon();
  auto probe = std::make_unique<ReserveProbe>();
  ReserveProbe* p = probe.get();
  s.world.add_node(std::move(probe), sim::MachineSpec{}, net::EntityKind::Spawner);
  s.world.run_until(2.0);
  s.world.schedule_global(0.0, [&] { p->request(s.sp_stubs[0], 1); });
  s.world.run_until(4.0);
  ASSERT_EQ(p->granted.size(), 1u);
  ASSERT_EQ(d->state(), Daemon::State::Reserved);
  const std::uint64_t attempts = d->bootstrap_attempts();

  s.world.schedule_global(0.0,
                          [&] { p->assign(p->granted[0], "no-such-program"); });
  s.world.run_until(5.0);
  EXPECT_EQ(d->state(), Daemon::State::Reserved);
  EXPECT_EQ(d->task(), nullptr);

  // Default reserved_timeout is 6 s; after it, the daemon re-registers.
  s.world.run_until(15.0);
  EXPECT_EQ(d->state(), Daemon::State::Registered);
  EXPECT_GT(d->bootstrap_attempts(), attempts);
  EXPECT_TRUE(s.sps[0]->has_registered(s.daemon_stubs[0]));
  EXPECT_EQ(d->task(), nullptr);
  EXPECT_EQ(d->iteration(), 0u);
  EXPECT_EQ(p->heartbeats, 0);
}

TEST(SuperPeer, DaemonReRegistersWhenSuperPeerDies) {
  Scenario s(2, 11);
  auto* d = s.add_daemon();
  s.world.run_until(2.0);
  ASSERT_EQ(d->state(), Daemon::State::Registered);
  const bool on_first = s.sps[0]->has_registered(s.daemon_stubs[0]);
  const std::size_t dead = on_first ? 0 : 1;
  const std::size_t alive = on_first ? 1 : 0;

  s.world.disconnect(s.sp_stubs[dead].node);
  s.world.run_until(15.0);
  EXPECT_EQ(d->state(), Daemon::State::Registered);
  EXPECT_TRUE(s.sps[alive]->has_registered(s.daemon_stubs[0]));
  EXPECT_GE(d->bootstrap_attempts(), 2u);
}

TEST(SuperPeer, DaemonBootstrapsThroughDeadEntryPoints) {
  // Only one of three bootstrap addresses is alive; the daemon must keep
  // retrying random addresses until it finds it (§5.1).
  Scenario s(3, 13);
  s.world.disconnect(s.sp_stubs[0].node);
  s.world.disconnect(s.sp_stubs[2].node);
  auto* d = s.add_daemon();
  s.world.run_until(20.0);
  EXPECT_EQ(d->state(), Daemon::State::Registered);
  EXPECT_TRUE(s.sps[1]->has_registered(s.daemon_stubs[0]));
}

}  // namespace
}  // namespace jacepp::core
