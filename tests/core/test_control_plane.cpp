// Decentralized control plane (DESIGN.md §13): golden pin of the default
// centralized path, a golden pin of the sharded Register at a few thousand
// daemons, last-heard-index failure detection, register sharding edges,
// Application Register replication + standby failover, and the
// reservation-staleness fixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "core/daemon.hpp"
#include "core/deployment.hpp"
#include "core/last_heard.hpp"
#include "core/messages.hpp"
#include "core/shard.hpp"
#include "core/spawner.hpp"
#include "core/super_peer.hpp"
#include "core/task.hpp"
#include "rmi/rmi.hpp"
#include "sim/world.hpp"

namespace jacepp::core {
namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ull;
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// ---------------------------------------------------------------------------
// Synthetic task program (same shape as test_spawner's ticker)
// ---------------------------------------------------------------------------

class CpTickerTask : public Task {
 public:
  bool init(const AppDescriptor& app, TaskId task_id) override {
    task_id_ = task_id;
    task_count_ = app.task_count;
    return true;
  }
  double iterate() override {
    ++iterations_;
    error_ = 1.0 / static_cast<double>(iterations_);
    return 1e6;
  }
  std::span<const OutgoingData> outgoing() override {
    if (task_count_ < 2) return {};
    serial::Writer w(std::move(token_));
    w.u64(iterations_);
    token_ = w.take();
    out_ = OutgoingData{(task_id_ + 1) % task_count_, token_};
    return {&out_, 1};
  }
  [[nodiscard]] double local_error() const override { return error_; }
  void on_data(TaskId, serial::ByteView) override {
    ++tokens_received_;
  }
  [[nodiscard]] serial::Bytes checkpoint() const override {
    serial::Writer w;
    w.u64(iterations_);
    w.u64(tokens_received_);
    return w.take();
  }
  bool restore(const serial::Bytes& state) override {
    serial::Reader r(state);
    const std::uint64_t iterations = r.u64();
    const std::uint64_t tokens_received = r.u64();
    if (!r.ok()) return false;
    iterations_ = iterations;
    tokens_received_ = tokens_received;
    error_ = iterations_ ? 1.0 / static_cast<double>(iterations_) : 1.0;
    return true;
  }

 private:
  TaskId task_id_ = 0;
  std::uint32_t task_count_ = 0;
  std::uint64_t iterations_ = 0;
  serial::Bytes token_;  ///< what outgoing() sends, rewritten in place
  OutgoingData out_;
  std::uint64_t tokens_received_ = 0;
  double error_ = 1.0;
};

const char* kGoldenTicker = "golden.ticker";

void register_golden_ticker() {
  static ProgramRegistrar registrar(kGoldenTicker, [] {
    return std::unique_ptr<Task>(new CpTickerTask());
  });
}

AppDescriptor golden_app() {
  register_golden_ticker();
  AppDescriptor app;
  app.app_id = 31;
  app.program = kGoldenTicker;
  app.task_count = 4;
  app.checkpoint_every = 5;
  app.backup_peer_count = 2;
  app.convergence_threshold = 0.002;  // stable once iteration >= 500
  app.stable_iterations_required = 3;
  return app;
}

std::uint64_t digest_of(const SimExperimentReport& report) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv(h, report.spawner.completed ? 1 : 0);
  h = fnv(h, bits_of(report.spawner.launch_time));
  h = fnv(h, bits_of(report.spawner.convergence_time));
  h = fnv(h, bits_of(report.spawner.finish_time));
  h = fnv(h, report.spawner.failures_detected);
  h = fnv(h, report.spawner.replacements);
  for (auto it : report.spawner.final_iterations) h = fnv(h, it);
  for (auto it : report.spawner.final_informative_iterations) h = fnv(h, it);
  h = fnv(h, report.net.sent);
  h = fnv(h, report.net.delivered);
  h = fnv(h, report.net.lost_down);
  h = fnv(h, report.net.lost_stale);
  h = fnv(h, report.net.bytes_sent);
  h = fnv(h, report.net.frames_on_wire);
  h = fnv(h, bits_of(report.sim_end_time));
  return h;
}

SimDeploymentConfig golden_config() {
  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 6;
  config.app = golden_app();
  config.disconnect_times = {1.8};
  config.reconnect = false;
  config.max_sim_time = 300.0;
  return config;
}

// ---------------------------------------------------------------------------
// Golden pin: cp defaults replay the pre-control-plane scheduler bit-for-bit
// ---------------------------------------------------------------------------

// Captured from the tree as it stood before the decentralized control plane
// landed (same scenario, byte-identical entity behaviour). Any change to the
// default path — the deployment's super-peer topology, centralized
// convergence detection, random bootstrap, reservation handling — breaks this
// pin and must be treated as a determinism regression. Re-pinned twice since:
// when the checkpoint policy left AppDescriptor (each TaskAssignment is 49
// bytes shorter), and when Reserved, TaskData and LocalStateReport lost the
// fields no receiver read (13, 8 and 8 bytes shorter). Each moves the byte
// count and the arrival times.
constexpr std::uint64_t kGoldenControlPlaneDigest = 10539076570156527832ull;

TEST(ControlPlaneGolden, DefaultPathBitIdenticalToPrePlaneScheduler) {
  SimDeployment deployment(golden_config());
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_EQ(digest_of(report), kGoldenControlPlaneDigest);
}

// ---------------------------------------------------------------------------
// LastHeardIndex (O(1) heartbeat failure detection)
// ---------------------------------------------------------------------------

TEST(LastHeardIndex, ExpiresOnlyKeysHeardStrictlyBeforeTheCutoff) {
  LastHeardIndex<int> index;
  index.touch(3, 1.0);
  index.touch(1, 2.0);
  index.touch(2, 3.0);
  EXPECT_EQ(index.size(), 3u);

  std::vector<int> expired;
  // Key 1 was heard exactly at the cutoff: not expired.
  EXPECT_EQ(index.expire(2.0, [&](int k) { expired.push_back(k); }), 1u);
  EXPECT_EQ(expired, (std::vector<int>{3}));
  EXPECT_EQ(index.expire(2.5, [&](int k) { expired.push_back(k); }), 1u);
  EXPECT_EQ(expired, (std::vector<int>{3, 1}));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.contains(2));
  EXPECT_FALSE(index.contains(1));
  EXPECT_FALSE(index.contains(3));
}

TEST(LastHeardIndex, TouchSupersedesOlderTime) {
  LastHeardIndex<int> index;
  index.touch(7, 1.0);
  index.touch(8, 2.0);
  index.touch(7, 5.0);  // heartbeat arrived: the old time no longer counts
  EXPECT_EQ(index.size(), 2u);
  std::vector<int> expired;
  EXPECT_EQ(index.expire(2.0, [&](int k) { expired.push_back(k); }), 0u);
  EXPECT_EQ(index.expire(3.0, [&](int k) { expired.push_back(k); }), 1u);
  EXPECT_EQ(expired, (std::vector<int>{8}));
  EXPECT_TRUE(index.contains(7));
  EXPECT_EQ(index.expire(6.0, [&](int k) { expired.push_back(k); }), 1u);
  EXPECT_EQ(expired, (std::vector<int>{8, 7}));
  EXPECT_EQ(index.size(), 0u);
}

TEST(LastHeardIndex, RefreshMovesOnlyPresentKeys) {
  LastHeardIndex<int> index;
  index.touch(1, 1.0);
  index.touch(2, 1.0);
  EXPECT_FALSE(index.refresh(3, 2.0));  // absent: not inserted
  EXPECT_FALSE(index.contains(3));
  EXPECT_TRUE(index.refresh(1, 2.0));
  std::vector<int> expired;
  EXPECT_EQ(index.expire(1.5, [&](int k) { expired.push_back(k); }), 1u);
  EXPECT_EQ(expired, (std::vector<int>{2}));
  EXPECT_FALSE(index.refresh(2, 2.0));  // expired keys are gone
  EXPECT_EQ(index.size(), 1u);
}

TEST(LastHeardIndex, EraseDropsThePendingEntry) {
  LastHeardIndex<int> index;
  index.touch(1, 1.0);
  index.touch(2, 1.0);
  index.erase(1);
  EXPECT_FALSE(index.contains(1));
  std::vector<int> expired;
  EXPECT_EQ(index.expire(2.0, [&](int k) { expired.push_back(k); }), 1u);
  EXPECT_EQ(expired, (std::vector<int>{2}));
}

TEST(LastHeardIndex, ReTouchInsideExpireCallback) {
  LastHeardIndex<int> index;
  index.touch(1, 1.0);
  EXPECT_EQ(index.expire(2.0, [&](int k) { index.touch(k, 10.0); }), 1u);
  EXPECT_TRUE(index.contains(1));
  std::vector<int> expired;
  EXPECT_EQ(index.expire(5.0, [&](int k) { expired.push_back(k); }), 0u);
  EXPECT_EQ(index.expire(11.0, [&](int k) { expired.push_back(k); }), 1u);
  EXPECT_EQ(expired, (std::vector<int>{1}));
}

TEST(LastHeardIndex, TouchEarlierThanThePreviousTouchAborts) {
  // Touch order is time order only while touch times never decrease. The
  // precondition is on touches, so it outlives an erased entry.
  LastHeardIndex<int> index;
  index.touch(1, 2.0);
  index.touch(2, 3.0);
  index.erase(2);
  EXPECT_DEATH(index.touch(3, 2.5), "precedes the previous touch");
  EXPECT_DEATH(index.refresh(1, 2.5), "precedes the previous touch");
}

// ---------------------------------------------------------------------------
// Register sharding edges (harness mirrors test_super_peer's Scenario, with
// control-plane knobs threaded through)
// ---------------------------------------------------------------------------

struct ShardScenario {
  static sim::SimConfig sim_config(std::uint64_t seed) {
    sim::SimConfig c;
    c.seed = seed;
    c.max_time = 1e6;
    return c;
  }

  sim::SimWorld world;
  ControlPlaneConfig cp;
  std::vector<SuperPeer*> sps;
  std::vector<net::Stub> sp_stubs;
  std::vector<net::Stub> sp_addresses;
  std::vector<net::Stub> daemon_stubs;

  explicit ShardScenario(std::size_t sp_count, ControlPlaneConfig cp_in,
                         std::uint64_t seed = 1)
      : world(sim_config(seed)), cp(cp_in) {
    for (std::size_t i = 0; i < sp_count; ++i) {
      auto sp = std::make_unique<SuperPeer>(TimingConfig{}, cp);
      sps.push_back(sp.get());
      const auto stub =
          world.add_node(std::move(sp), sim::MachineSpec::super_peer_class(),
                         net::EntityKind::SuperPeer);
      sp_stubs.push_back(stub);
      sp_addresses.push_back(stub.address());
    }
    for (auto* sp : sps) sp->set_linked_peers(sp_stubs);
  }

  Daemon* add_daemon() {
    auto daemon =
        std::make_unique<Daemon>(sp_addresses, TimingConfig{}, PerfConfig{}, cp);
    Daemon* raw = daemon.get();
    daemon_stubs.push_back(world.add_node(std::move(daemon), sim::MachineSpec{},
                                          net::EntityKind::Daemon));
    return raw;
  }

  [[nodiscard]] std::size_t home_of(const net::Stub& daemon) const {
    return shard_of(daemon.node, sp_addresses.size());
  }
};

// The super-peer's indexed sweep must behave exactly like the old linear
// scan: same daemons dropped at the same sweep ticks, survivors untouched.
TEST(ControlPlane, HeapSweepMatchesLinearScanSemantics) {
  ShardScenario s(1, ControlPlaneConfig{}, /*seed=*/17);
  std::vector<Daemon*> daemons;
  for (int i = 0; i < 5; ++i) daemons.push_back(s.add_daemon());
  s.world.run_until(2.0);
  ASSERT_EQ(s.sps[0]->registered_count(), 5u);

  // Kill two daemons; both must be swept once daemon_timeout elapses.
  s.world.disconnect(s.daemon_stubs[1].node);
  s.world.disconnect(s.daemon_stubs[3].node);
  s.world.run_until(10.0);
  EXPECT_EQ(s.sps[0]->registered_count(), 3u);
  EXPECT_EQ(s.sps[0]->daemons_swept(), 2u);
  // Survivors keep heartbeating and are never swept.
  s.world.run_until(30.0);
  EXPECT_EQ(s.sps[0]->registered_count(), 3u);
  EXPECT_EQ(s.sps[0]->daemons_swept(), 2u);
}

TEST(ControlPlane, ShardedRegisterLandsDaemonsOnHomeSuperPeer) {
  ControlPlaneConfig cp;
  cp.shard_register = true;
  ShardScenario s(4, cp);
  std::vector<Daemon*> daemons;
  for (int i = 0; i < 12; ++i) daemons.push_back(s.add_daemon());
  s.world.run_until(2.0);
  for (std::size_t i = 0; i < s.daemon_stubs.size(); ++i) {
    ASSERT_EQ(daemons[i]->state(), Daemon::State::Registered);
    const std::size_t home = s.home_of(s.daemon_stubs[i]);
    EXPECT_TRUE(s.sps[home]->has_registered(s.daemon_stubs[i]))
        << "daemon " << i << " not on home shard " << home;
  }
}

TEST(ControlPlane, ReRegisterAfterCrashLandsOnSameShard) {
  ControlPlaneConfig cp;
  cp.shard_register = true;
  ShardScenario s(4, cp);
  s.add_daemon();
  s.world.run_until(2.0);
  const std::size_t home = s.home_of(s.daemon_stubs[0]);
  ASSERT_TRUE(s.sps[home]->has_registered(s.daemon_stubs[0]));

  // Crash and revive: the new incarnation shares the NodeId, so the home
  // shard must be identical.
  s.world.disconnect(s.daemon_stubs[0].node);
  s.world.run_until(8.0);  // swept off the home register
  ASSERT_FALSE(s.sps[home]->has_registered(s.daemon_stubs[0]));
  const net::Stub revived = s.world.revive(
      s.daemon_stubs[0].node,
      std::make_unique<Daemon>(s.sp_addresses, TimingConfig{}, PerfConfig{},
                               s.cp));
  s.world.run_until(12.0);
  EXPECT_EQ(s.home_of(revived), home);
  EXPECT_TRUE(s.sps[home]->has_registered(revived));
  for (std::size_t i = 0; i < s.sps.size(); ++i) {
    if (i != home) {
      EXPECT_EQ(s.sps[i]->registered_count(), 0u);
    }
  }
}

TEST(ControlPlane, RingWalkWhenHomeSuperPeerIsDown) {
  ControlPlaneConfig cp;
  cp.shard_register = true;
  ShardScenario s(3, cp);
  auto* d = s.add_daemon();
  const std::size_t home = s.home_of(s.daemon_stubs[0]);
  s.world.disconnect(s.sp_stubs[home].node);
  s.world.run_until(5.0);
  // The deterministic ring walk must settle on the next live super-peer.
  const std::size_t next = (home + 1) % s.sps.size();
  EXPECT_EQ(d->state(), Daemon::State::Registered);
  EXPECT_TRUE(s.sps[next]->has_registered(s.daemon_stubs[0]));
}

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
    }
  }
  void request(const net::Stub& sp, std::uint32_t count) {
    msg::ReserveRequest req;
    req.request_id = 1;
    req.count = count;
    req.requester = env_->self();
    rmi::invoke(*env_, sp, req);
  }

  net::Env* env_ = nullptr;
  std::vector<net::Stub> granted;
  int replies = 0;
  bool exhausted = false;
};

TEST(ControlPlane, ReservationServedWhenHomeShardEmpty) {
  // All daemons live on their home shards; a request landing on a super-peer
  // whose register is empty must still be served through forwarding.
  ControlPlaneConfig cp;
  cp.shard_register = true;
  ShardScenario s(2, cp);
  std::vector<Daemon*> daemons;
  for (int i = 0; i < 6; ++i) daemons.push_back(s.add_daemon());
  s.world.run_until(2.0);

  // Find the emptier super-peer (possibly empty) and aim the request at it:
  // the forwarding path has to make up the shortfall from the other shard.
  const std::size_t lean =
      s.sps[0]->registered_count() <= s.sps[1]->registered_count() ? 0 : 1;
  auto probe = std::make_unique<ReserveProbe>();
  ReserveProbe* p = probe.get();
  s.world.add_node(std::move(probe), sim::MachineSpec{},
                   net::EntityKind::Spawner);
  s.world.run_until(2.5);
  s.world.schedule_global(0.0, [&] { p->request(s.sp_stubs[lean], 6); });
  s.world.run_until(5.0);
  EXPECT_EQ(p->granted.size(), 6u);
  EXPECT_FALSE(p->exhausted);
  EXPECT_GE(s.sps[lean]->requests_forwarded(), 1u);
}

// ---------------------------------------------------------------------------
// Reservation staleness (satellite: TTL + NACK-and-retry)
// ---------------------------------------------------------------------------

TEST(ControlPlane, PooledReservationExpiresWhenDaemonCrashesBeforeAssignment) {
  // 2 daemons, 3 tasks: the spawner pools both and stalls short of capacity.
  // One pooled daemon crashes in exactly the ReserveReply→assignment window;
  // its reservation must be written off by the TTL, and the launch must
  // proceed cleanly once fresh daemons join — no assignment to a dead stub,
  // no spurious failure/replacement.
  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 2;
  config.app = golden_app();
  config.app.task_count = 3;
  config.max_sim_time = 400.0;
  SimDeployment deployment(config);
  deployment.build();

  auto& world = deployment.world();
  // By t=2 both daemons are Reserved (pooled, unassigned). Crash one.
  world.schedule_global(2.0, [&] {
    auto* d = dynamic_cast<Daemon*>(world.actor(deployment.daemon_nodes()[0]));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->state(), Daemon::State::Reserved);
    world.disconnect(deployment.daemon_nodes()[0]);
  });
  // Two fresh daemons join well after the reservation TTL (4 s) has pruned
  // the dead pool entry.
  world.schedule_global(8.0, [&] {
    for (int i = 0; i < 2; ++i) {
      world.add_node(
          std::make_unique<Daemon>(
              std::vector<net::Stub>(deployment.super_peer_addresses()),
              TimingConfig{}),
          sim::MachineSpec{}, net::EntityKind::Daemon);
    }
  });
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_GE(deployment.spawner()->reservations_expired(), 1u);
  EXPECT_EQ(deployment.spawner()->assign_nacks(), 0u);
  EXPECT_EQ(report.spawner.failures_detected, 0u);
  EXPECT_EQ(report.spawner.replacements, 0u);
}

TEST(ControlPlane, AssignmentToCrashedReservationIsNackedAndRetried) {
  // Same crash window, but capacity arrives BEFORE the TTL prunes the stale
  // entry: the launch assigns a task to the dead stub. The assign-ack NACK
  // must replace it within the assign-ack window (1.5 s) instead of the full
  // daemon_timeout, and without counting a computing-daemon failure.
  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 2;
  config.app = golden_app();
  config.app.task_count = 3;
  config.max_sim_time = 400.0;
  SimDeployment deployment(config);
  deployment.build();

  auto& world = deployment.world();
  world.schedule_global(2.0, [&] {
    auto* d = dynamic_cast<Daemon*>(world.actor(deployment.daemon_nodes()[0]));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->state(), Daemon::State::Reserved);
    world.disconnect(deployment.daemon_nodes()[0]);
  });
  // Capacity joins immediately: one daemon completes the launch trio (with
  // the dead stub still pooled), one spare serves the NACK replacement.
  world.schedule_global(2.2, [&] {
    for (int i = 0; i < 2; ++i) {
      world.add_node(
          std::make_unique<Daemon>(
              std::vector<net::Stub>(deployment.super_peer_addresses()),
              TimingConfig{}),
          sim::MachineSpec{}, net::EntityKind::Daemon);
    }
  });
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_GE(deployment.spawner()->assign_nacks(), 1u);
  // The NACK is not a computing-daemon failure; the retried assignment counts
  // as a replacement.
  EXPECT_EQ(report.spawner.failures_detected, 0u);
  EXPECT_GE(report.spawner.replacements, 1u);
}

// ---------------------------------------------------------------------------
// Application Register replication + standby failover
// ---------------------------------------------------------------------------

TEST(ControlPlane, ReplicasReachSuperPeersOnLaunch) {
  SimDeploymentConfig config = golden_config();
  config.disconnect_times.clear();
  config.super_peer_count = 3;
  config.cp.replicate_register = true;
  SimDeployment deployment(config);
  deployment.build();
  auto& world = deployment.world();
  world.run_until(30.0);

  // The first two bootstrap super-peers hold a replica; the third does not.
  int with_replica = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    auto* sp = dynamic_cast<SuperPeer*>(
        world.actor(deployment.super_peer_addresses()[i].node));
    ASSERT_NE(sp, nullptr);
    if (sp->has_replica(config.app.app_id)) {
      ++with_replica;
      EXPECT_GE(sp->replica_version(config.app.app_id), 1u);
    }
  }
  EXPECT_EQ(with_replica, 2);
}

TEST(ControlPlane, StandbySpawnerAdoptsAfterPrimaryDies) {
  // Manual world: primary spawner (replicating), one SP, enough daemons.
  // Kill the primary mid-run; a standby started afterwards must fetch the
  // replica, adopt the application, re-target the daemons and carry the run
  // to completion.
  register_golden_ticker();
  sim::SimConfig sim_config;
  sim_config.seed = 23;
  sim_config.max_time = 1e6;
  sim::SimWorld world(sim_config);

  ControlPlaneConfig cp;
  cp.replicate_register = true;

  auto sp_owned = std::make_unique<SuperPeer>(TimingConfig{}, cp);
  SuperPeer* sp = sp_owned.get();
  const net::Stub sp_stub =
      world.add_node(std::move(sp_owned), sim::MachineSpec::super_peer_class(),
                     net::EntityKind::SuperPeer);
  const std::vector<net::Stub> addresses{sp_stub.address()};

  for (int i = 0; i < 6; ++i) {
    world.add_node(
        std::make_unique<Daemon>(addresses, TimingConfig{}, PerfConfig{}, cp),
        sim::MachineSpec{}, net::EntityKind::Daemon);
  }

  AppDescriptor app = golden_app();
  // Slow convergence (stable from iteration 10000, ~50 s at the default
  // 200 Mflop/s machine) so the failover at t=15 lands mid-computation.
  app.convergence_threshold = 1e-4;

  bool primary_completed = false;
  auto primary = std::make_unique<Spawner>(
      app, addresses,
      [&](const SpawnerReport&) { primary_completed = true; }, TimingConfig{},
      cp);
  const net::Stub primary_stub =
      world.add_node(std::move(primary), sim::MachineSpec::spawner_class(),
                     net::EntityKind::Spawner);

  bool standby_completed = false;
  SpawnerReport standby_report;
  Spawner* standby_ptr = nullptr;
  world.schedule_global(15.0, [&] {
    world.disconnect(primary_stub.node);
    auto standby = std::make_unique<Spawner>(
        app, addresses,
        [&](const SpawnerReport& r) {
          standby_completed = true;
          standby_report = r;
          world.request_stop();
        },
        TimingConfig{}, cp);
    standby->set_standby(true);
    standby_ptr = standby.get();
    world.add_node(std::move(standby), sim::MachineSpec::spawner_class(),
                   net::EntityKind::Spawner);
  });

  world.run_until(1000.0);
  EXPECT_FALSE(primary_completed);
  ASSERT_NE(standby_ptr, nullptr);
  EXPECT_TRUE(standby_ptr->adopted());
  ASSERT_TRUE(standby_completed);
  EXPECT_TRUE(standby_report.completed);
  EXPECT_TRUE(sp->has_replica(app.app_id));
  // Every task reached the (slow) stability point under the standby.
  for (const auto it : standby_report.final_iterations) {
    EXPECT_GE(it, 10000u);
  }
}

// ---------------------------------------------------------------------------
// Sharded plane: bit-determinism across scheduler shards (this test also
// backs the TSan CI leg; keep "ShardedPlane" in its name).
// ---------------------------------------------------------------------------

std::uint64_t run_decentralized(std::size_t shards, std::size_t threads) {
  SimDeploymentConfig config;
  config.daemon_count = 24;
  config.app = golden_app();
  config.app.task_count = 6;
  config.max_sim_time = 600.0;
  // Shard-count invariance needs the §12 deviations quiet: zero jitter (the
  // jitter streams are per-shard by design) and no mid-flight crash (loss
  // classification moves from send to arrival time at shards > 1). The
  // decentralized plane itself draws no scheduler randomness — registration
  // and reservation spreading hash instead of sampling — which is what makes
  // this gate possible at all.
  config.sim.message_jitter = 0.0;
  config.sim.compute_jitter = 0.0;
  config.super_peer_count = 4;
  config.cp.shard_register = true;
  config.cp.replicate_register = true;
  config.sim.shards = shards;
  config.sim.worker_threads = threads;
  SimDeployment deployment(config);
  const auto report = deployment.run();
  EXPECT_TRUE(report.spawner.completed);
  // Fold the protocol-visible outcome and the conserved wire totals. Two
  // quantities are deliberately left out: `delivered` and `sim_end_time` are
  // defined by where the scheduler's stop lands — the classic queue halts on
  // the exact completion event while a sharded round finishes the events
  // already inside its open horizon (§12 mid-round-stop semantics) — so a
  // handful of in-flight frames count as delivered at shards > 1 that the
  // classic run leaves on the wire. `sent`/`bytes_sent`/`frames_on_wire`
  // and the loss counters are send-side and conserved, hence comparable.
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv(h, report.spawner.completed ? 1 : 0);
  h = fnv(h, bits_of(report.spawner.launch_time));
  h = fnv(h, bits_of(report.spawner.convergence_time));
  h = fnv(h, bits_of(report.spawner.finish_time));
  h = fnv(h, report.spawner.failures_detected);
  h = fnv(h, report.spawner.replacements);
  for (auto it : report.spawner.final_iterations) h = fnv(h, it);
  for (auto it : report.spawner.final_informative_iterations) h = fnv(h, it);
  h = fnv(h, report.net.sent);
  h = fnv(h, report.net.lost_down);
  h = fnv(h, report.net.lost_stale);
  h = fnv(h, report.net.bytes_sent);
  h = fnv(h, report.net.frames_on_wire);
  return h;
}

TEST(ControlPlane, ShardedPlaneDeterministicAcrossShardsAndThreads) {
  const std::uint64_t base = run_decentralized(1, 0);
  EXPECT_EQ(run_decentralized(4, 0), base);
  EXPECT_EQ(run_decentralized(4, 2), base);
}

// ---------------------------------------------------------------------------
// Golden pin: the sharded Register at a few thousand daemons
// ---------------------------------------------------------------------------

constexpr std::size_t kScaleSuperPeers = 4;
constexpr std::size_t kScaleDaemons = 4800;
constexpr std::uint32_t kScaleRequests = 40;
constexpr std::uint32_t kScaleBatch = 4;

/// A spawner's reservation burst: `total` requests for kScaleBatch daemons,
/// one every 0.05 sim s from t = 1, each sent to the super-peer the register
/// hash picks for its request id. Records when each batch was filled.
class BatchReserveProbe : public net::Actor {
 public:
  BatchReserveProbe(std::vector<net::Stub> sps, std::uint32_t total)
      : sps_(std::move(sps)), total_(total) {}

  void on_start(net::Env& env) override {
    env_ = &env;
    env.schedule(1.0, [this] { issue(); });
  }

  void on_message(const net::Message& m, net::Env& env) override {
    if (m.type != msg::ReserveReply::kType) return;
    const auto reply = net::payload_of<msg::ReserveReply>(m);
    Request& request = requests_[reply.request_id];
    request.granted += static_cast<std::uint32_t>(reply.daemons.size());
    if (request.granted >= kScaleBatch && request.filled_at < 0.0) {
      request.filled_at = env.now();
      ++filled_;
    }
  }

  [[nodiscard]] std::uint32_t filled() const { return filled_; }

  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const {
    for (const auto& [id, request] : requests_) {
      h = fnv(h, id);
      h = fnv(h, request.granted);
      h = fnv(h, bits_of(request.filled_at));
    }
    return h;
  }

 private:
  struct Request {
    std::uint32_t granted = 0;
    double filled_at = -1.0;
  };

  void issue() {
    msg::ReserveRequest req;
    req.request_id = ++issued_;
    req.count = kScaleBatch;
    req.requester = env_->self();
    requests_[req.request_id];
    rmi::invoke(*env_, sps_[shard_of(req.request_id, sps_.size())], req);
    if (issued_ < total_) env_->schedule(0.05, [this] { issue(); });
  }

  std::vector<net::Stub> sps_;
  std::uint32_t total_;
  net::Env* env_ = nullptr;
  std::uint32_t issued_ = 0;
  std::uint32_t filled_ = 0;
  std::map<std::uint32_t, Request> requests_;
};

struct ScaleRun {
  std::uint64_t digest = 0;
  std::size_t min_registered_at_burst = 0;
  std::size_t disconnected = 0;
  std::uint64_t swept = 0;
  std::uint32_t filled = 0;
};

ScaleRun run_register_at_scale(std::size_t worker_threads) {
  sim::SimConfig config;
  config.seed = 2006;
  config.max_time = 1e6;
  config.message_jitter = 0.0;
  config.compute_jitter = 0.0;
  config.shards = 4;
  config.worker_threads = worker_threads;
  sim::SimWorld world(config);

  ControlPlaneConfig cp;
  cp.shard_register = true;
  std::vector<SuperPeer*> sps;
  std::vector<net::Stub> sp_stubs;
  std::vector<net::Stub> sp_addresses;
  for (std::size_t i = 0; i < kScaleSuperPeers; ++i) {
    auto sp = std::make_unique<SuperPeer>(TimingConfig{}, cp);
    sps.push_back(sp.get());
    sp_stubs.push_back(world.add_node(std::move(sp),
                                      sim::MachineSpec::super_peer_class(),
                                      net::EntityKind::SuperPeer));
    sp_addresses.push_back(sp_stubs.back().address());
  }
  for (auto* sp : sps) sp->set_linked_peers(sp_stubs);

  std::vector<Daemon*> daemons;
  std::vector<net::Stub> daemon_stubs;
  for (std::size_t i = 0; i < kScaleDaemons; ++i) {
    auto daemon = std::make_unique<Daemon>(sp_addresses, TimingConfig{},
                                           PerfConfig{}, cp);
    daemons.push_back(daemon.get());
    daemon_stubs.push_back(world.add_node(std::move(daemon), sim::MachineSpec{},
                                          net::EntityKind::Daemon));
  }
  auto probe = std::make_unique<BatchReserveProbe>(sp_stubs, kScaleRequests);
  const BatchReserveProbe* p = probe.get();
  world.add_node(std::move(probe), sim::MachineSpec::spawner_class(),
                 net::EntityKind::Spawner);

  // With zero jitter every daemon heartbeats at the same instants. At t = 2
  // every fourth daemon still idle in a Register crashes, so each super-peer
  // later sweeps out hundreds of entries last heard at one and the same time.
  ScaleRun run;
  world.schedule_global(2.0, [&] {
    run.min_registered_at_burst = sps[0]->registered_count();
    for (const SuperPeer* sp : sps) {
      run.min_registered_at_burst =
          std::min(run.min_registered_at_burst, sp->registered_count());
    }
    for (std::size_t i = 0; i < daemons.size(); i += 4) {
      if (daemons[i]->state() != Daemon::State::Registered) continue;
      world.disconnect(daemon_stubs[i].node);
      ++run.disconnected;
    }
  });
  world.run_until(6.0);

  std::uint64_t h = p->digest(0xcbf29ce484222325ull);
  h = fnv(h, world.events_executed());
  h = fnv(h, world.rounds_executed());
  const sim::NetStats& net = world.stats();
  h = fnv(h, net.sent);
  h = fnv(h, net.delivered);
  h = fnv(h, net.lost_down);
  h = fnv(h, net.lost_stale);
  h = fnv(h, net.bytes_sent);
  h = fnv(h, net.frames_on_wire);
  h = fnv(h, net.cross_shard_frames);
  for (const SuperPeer* sp : sps) {
    h = fnv(h, sp->reservations_served());
    h = fnv(h, sp->requests_forwarded());
    h = fnv(h, sp->daemons_swept());
    h = fnv(h, sp->registered_count());
    run.swept += sp->daemons_swept();
  }
  h = fnv(h, run.disconnected);
  run.digest = h;
  run.filled = p->filled();
  return run;
}

// Recorded on the tree whose super-peer swept off a deadline heap (ties
// broken by stub). The last-heard index expires equal-time entries in touch
// order instead; expiring emits no message, so nothing here may move.
// Re-pinned when Reserved lost the spawner stub no daemon read: each grant
// is 13 bytes shorter, which moves the byte count and the arrival times.
constexpr std::uint64_t kGoldenRegisterAtScaleDigest = 15412337827438797625ull;

TEST(ControlPlaneGolden, ShardedRegisterAtScaleBitIdenticalAcrossThreads) {
  const ScaleRun one = run_register_at_scale(1);
  EXPECT_GE(one.min_registered_at_burst, 1000u);
  EXPECT_GT(one.disconnected, 1000u);
  // Every crashed daemon still in a Register is swept; none alive is.
  EXPECT_GT(one.swept, 1000u);
  EXPECT_LE(one.swept, one.disconnected);
  EXPECT_EQ(one.filled, kScaleRequests);
  EXPECT_EQ(one.digest, kGoldenRegisterAtScaleDigest);
  EXPECT_EQ(run_register_at_scale(2).digest, one.digest);
}

}  // namespace
}  // namespace jacepp::core
