// Churn & adversarial-worker harness (DESIGN.md §14): churn-trace generation
// and replay determinism, the §12 conservation gate under fault injection,
// reputation-store scoring, reputation-aware reservation, redundant-execution
// voting against lying workers, and LastHeardIndex edge cases.
//
// Defaults-off bit-identity with the pre-§14 tree is enforced by the golden
// pin in test_control_plane.cpp: that scenario now runs through every edited
// code path (spawner, super-peer, daemon, deployment) with `rep.*`/`churn.*`
// at their defaults, so any default-path drift breaks the existing digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/adversary.hpp"
#include "core/deployment.hpp"
#include "core/last_heard.hpp"
#include "core/messages.hpp"
#include "core/reputation.hpp"
#include "core/spawner.hpp"
#include "core/super_peer.hpp"
#include "core/task.hpp"
#include "rmi/rmi.hpp"
#include "sim/churn.hpp"
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
// Synthetic task program (content-insensitive ticker: corrupted dependency
// payloads cannot affect convergence, so liar detection is isolated to the
// verification round)
// ---------------------------------------------------------------------------

class ChurnTickerTask : public Task {
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
    return w.take();
  }
  bool restore(const serial::Bytes& state) override {
    serial::Reader r(state);
    const std::uint64_t iterations = r.u64();
    if (!r.ok()) return false;
    iterations_ = iterations;
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

const char* kChurnTicker = "churn.ticker";

void register_churn_ticker() {
  static ProgramRegistrar registrar(kChurnTicker, [] {
    return std::unique_ptr<Task>(new ChurnTickerTask());
  });
}

AppDescriptor churn_app(std::uint32_t task_count) {
  register_churn_ticker();
  AppDescriptor app;
  app.app_id = 41;
  app.program = kChurnTicker;
  app.task_count = task_count;
  app.checkpoint_every = 5;
  app.backup_peer_count = 2;
  app.convergence_threshold = 0.004;  // stable once iteration >= 250
  app.stable_iterations_required = 3;
  return app;
}

// ---------------------------------------------------------------------------
// Churn-trace generation (sim/churn.hpp)
// ---------------------------------------------------------------------------

sim::ChurnScriptConfig busy_churn() {
  sim::ChurnScriptConfig churn;
  churn.seed = 3;
  churn.start = 1.0;
  churn.horizon = 10.0;
  churn.flash_crowds = 1;
  churn.flash_size = 3;
  churn.failure_bursts = 2;
  churn.burst_size = 2;
  churn.revive_delay = 15.0;
  churn.slowdowns = 1;
  churn.slowdown_size = 2;
  churn.slow_factor = 4.0;
  return churn;
}

TEST(ChurnTrace, DefaultConfigIsInactiveAndEmpty) {
  const sim::ChurnScriptConfig config;
  EXPECT_FALSE(config.active());
  EXPECT_TRUE(sim::generate_churn_trace(config).ops.empty());
}

TEST(ChurnTrace, GenerationIsDeterministic) {
  const auto config = busy_churn();
  const auto a = sim::generate_churn_trace(config);
  const auto b = sim::generate_churn_trace(config);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].time, b.ops[i].time);
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
    EXPECT_EQ(a.ops[i].count, b.ops[i].count);
    EXPECT_EQ(a.ops[i].factor, b.ops[i].factor);
    EXPECT_EQ(a.ops[i].rng_seed, b.ops[i].rng_seed);
  }
}

TEST(ChurnTrace, RespectsCountsBoundsAndOrdering) {
  const auto config = busy_churn();
  const auto trace = sim::generate_churn_trace(config);
  ASSERT_EQ(trace.ops.size(),
            config.flash_crowds + config.failure_bursts + config.slowdowns);
  double prev = -1.0;
  std::size_t crowds = 0;
  std::size_t bursts = 0;
  std::size_t slows = 0;
  for (const sim::ChurnOp& op : trace.ops) {
    EXPECT_GE(op.time, config.start);
    EXPECT_LE(op.time, config.start + config.horizon);
    EXPECT_GE(op.time, prev);  // sorted ascending
    prev = op.time;
    switch (op.kind) {
      case sim::ChurnOpKind::FlashCrowd:
        ++crowds;
        EXPECT_EQ(op.count, config.flash_size);
        break;
      case sim::ChurnOpKind::FailureBurst:
        ++bursts;
        EXPECT_EQ(op.count, config.burst_size);
        break;
      case sim::ChurnOpKind::Slowdown:
        ++slows;
        EXPECT_EQ(op.count, config.slowdown_size);
        EXPECT_EQ(op.factor, config.slow_factor);
        break;
    }
    EXPECT_NE(op.rng_seed, 0u);
  }
  EXPECT_EQ(crowds, config.flash_crowds);
  EXPECT_EQ(bursts, config.failure_bursts);
  EXPECT_EQ(slows, config.slowdowns);
}

TEST(ChurnTrace, DifferentSeedsProduceDifferentOpTimes) {
  auto config = busy_churn();
  const auto a = sim::generate_churn_trace(config);
  config.seed = 4;
  const auto b = sim::generate_churn_trace(config);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    any_diff = any_diff || a.ops[i].time != b.ops[i].time;
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// ReputationStore (core/reputation.hpp)
// ---------------------------------------------------------------------------

constexpr double kAlpha = ReputationStore::kEwmaAlpha;
constexpr double kPrior = ReputationStore::kInitialScore;
constexpr double kWeight = ReputationStore::kSpeedWeight;

/// The placement score of a peer with these two tracks.
double blended(double availability, double speed) {
  return (1.0 - kWeight) * availability + kWeight * speed;
}

TEST(ReputationStore, UnknownPeerScoresNeutralPrior) {
  const ReputationStore store;
  EXPECT_DOUBLE_EQ(store.score_of(7), kPrior);
  EXPECT_FALSE(store.known(7));
}

TEST(ReputationStore, EwmaMovesAvailabilityTowardObservations) {
  ReputationStore store;
  double availability = kPrior;  // speed stays at the prior throughout
  store.observe_success(1);
  availability += kAlpha * (1.0 - availability);
  EXPECT_DOUBLE_EQ(store.score_of(1), blended(availability, kPrior));
  store.observe_failure(1);
  availability -= kAlpha * availability;
  EXPECT_DOUBLE_EQ(store.score_of(1), blended(availability, kPrior));
  // Long runs drive availability to its bounds: 1 after successes, 0 after
  // failures.
  for (int i = 0; i < 100; ++i) store.observe_success(1);
  EXPECT_NEAR(store.score_of(1), blended(1.0, kPrior), 1e-6);
  for (int i = 0; i < 100; ++i) store.observe_failure(1);
  EXPECT_NEAR(store.score_of(1), blended(0.0, kPrior), 1e-6);
}

TEST(ReputationStore, SpeedBlendsIntoScore) {
  ReputationStore store;
  store.observe_success(1);
  const double availability = kPrior + kAlpha * (1.0 - kPrior);
  double speed = kPrior;
  store.observe_speed(1, 0.0);
  speed += kAlpha * (0.0 - speed);
  EXPECT_DOUBLE_EQ(store.score_of(1), blended(availability, speed));
  store.observe_speed(1, 1.0);
  speed += kAlpha * (1.0 - speed);
  EXPECT_DOUBLE_EQ(store.score_of(1), blended(availability, speed));
}

TEST(ReputationStore, LiarIsPinnedToFloorPermanently) {
  ReputationStore store;
  store.observe_success(3);
  store.observe_liar(3);
  EXPECT_TRUE(store.is_liar(3));
  EXPECT_DOUBLE_EQ(store.score_of(3), 0.0);
  EXPECT_EQ(store.liars_marked(), 1u);
  // No observation ever lifts a liar off the floor.
  for (int i = 0; i < 100; ++i) {
    store.observe_success(3);
    store.observe_speed(3, 1.0);
  }
  EXPECT_DOUBLE_EQ(store.score_of(3), 0.0);
  store.observe_liar(3);  // idempotent
  EXPECT_EQ(store.liars_marked(), 1u);
}

// ---------------------------------------------------------------------------
// LastHeardIndex edge cases
// ---------------------------------------------------------------------------

TEST(LastHeardIndexEdge, SameTimeTouchesExpireInTouchOrder) {
  LastHeardIndex<int> index;
  index.touch(3, 10.0);
  index.touch(1, 10.0);
  index.touch(2, 10.0);
  index.touch(3, 10.0);  // same time again: moves 3 behind 1 and 2
  EXPECT_EQ(index.size(), 3u);
  std::vector<int> popped;
  EXPECT_EQ(index.expire(10.0, [&](int key) { popped.push_back(key); }), 0u);
  EXPECT_EQ(index.expire(100.0, [&](int key) { popped.push_back(key); }), 3u);
  EXPECT_EQ(popped, (std::vector<int>{1, 2, 3}));
}

TEST(LastHeardIndexEdge, EraseLastOnlyAndAbsentKeys) {
  LastHeardIndex<int> index;
  index.touch(5, 1.0);
  index.erase(5);  // the only entry
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.contains(5));
  EXPECT_EQ(index.expire(100.0, [](int) {}), 0u);

  index.touch(1, 1.0);
  index.touch(2, 2.0);
  index.touch(3, 3.0);
  index.touch(4, 4.0);
  index.erase(4);  // the last (most recently touched) entry
  index.erase(1);  // the first (oldest) entry
  index.erase(9);  // absent key: no-op
  EXPECT_EQ(index.size(), 2u);
  EXPECT_FALSE(index.contains(4));
  EXPECT_FALSE(index.contains(1));
  std::vector<int> popped;
  index.expire(100.0, [&](int key) { popped.push_back(key); });
  EXPECT_EQ(popped, (std::vector<int>{2, 3}));
}

TEST(LastHeardIndexEdge, InterleavedTouchExpireStormMatchesReference) {
  // Reference model: key -> (last-heard time, touch sequence number), driven
  // by a clock that never goes back. Expiration pops every key heard before
  // the cutoff in (time, touch sequence) order: ties go in touch order.
  LastHeardIndex<int> index;
  std::map<int, std::pair<double, std::uint64_t>> model;
  std::uint64_t seq = 0;
  double now = 0.0;
  Rng rng(0xd34d11ull);
  constexpr int kKeys = 24;
  for (int step = 0; step < 4000; ++step) {
    // Quantized clock steps force plenty of same-time touches.
    if (rng.next_double() < 0.3) now += static_cast<double>(rng.index(3));
    const double roll = rng.next_double();
    const int key = static_cast<int>(rng.index(kKeys));
    if (roll < 0.45) {
      index.touch(key, now);
      model[key] = {now, seq++};
    } else if (roll < 0.60) {
      const bool present = model.count(key) != 0;
      ASSERT_EQ(index.refresh(key, now), present);
      if (present) model[key] = {now, seq++};
    } else if (roll < 0.78) {
      index.erase(key);
      model.erase(key);
    } else {
      const double cutoff = now - static_cast<double>(rng.index(4));
      std::vector<std::pair<std::pair<double, std::uint64_t>, int>> expected;
      for (const auto& [k, heard] : model) {
        if (heard.first < cutoff) expected.push_back({heard, k});
      }
      std::sort(expected.begin(), expected.end());
      for (const auto& entry : expected) model.erase(entry.second);
      std::vector<int> popped;
      ASSERT_EQ(index.expire(cutoff, [&](int k) { popped.push_back(k); }),
                expected.size());
      ASSERT_EQ(popped.size(), expected.size());
      for (std::size_t i = 0; i < popped.size(); ++i) {
        ASSERT_EQ(popped[i], expected[i].second) << "step " << step;
      }
    }
    ASSERT_EQ(index.size(), model.size());
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_EQ(index.contains(k), model.count(k) != 0) << "step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// Reputation-aware reservation (super-peer grant order)
// ---------------------------------------------------------------------------

TEST(ReputationPlacement, SuperPeerGrantsBestScoredDaemonsFirst) {
  // Drive a SuperPeer inside a tiny world: register three daemons, feed the
  // store liar/failure evidence against two of them via ReputationReport,
  // then reserve one daemon and check the best-scored peer was granted.
  sim::SimConfig sim_config;
  sim_config.message_jitter = 0.0;
  sim_config.compute_jitter = 0.0;
  sim::SimWorld world(sim_config);

  ReputationConfig rep;
  rep.enabled = true;
  auto sp_owned = std::make_unique<SuperPeer>(TimingConfig{},
                                              ControlPlaneConfig{}, rep);
  SuperPeer* sp = sp_owned.get();
  const net::Stub sp_stub = world.add_node(
      std::move(sp_owned), sim::MachineSpec::super_peer_class(),
      net::EntityKind::SuperPeer);

  // Harness actor: sends the scripted messages, records ReserveReply.
  struct Probe : net::Actor {
    net::Stub sp;
    std::vector<net::Stub> daemons;
    std::vector<net::Stub> granted;
    void on_start(net::Env& env) override {
      for (const net::Stub& d : daemons) {
        rmi::invoke(env, sp, msg::RegisterDaemon{d});
      }
      // Demote daemons[0] (liar) and daemons[1] (repeated failures).
      msg::ReputationReport liar;
      liar.node = daemons[0].node;
      liar.kind = msg::ReputationReport::Liar;
      rmi::invoke(env, sp, liar);
      for (int i = 0; i < 4; ++i) {
        msg::ReputationReport fail;
        fail.node = daemons[1].node;
        fail.kind = msg::ReputationReport::Failure;
        rmi::invoke(env, sp, fail);
      }
      env.schedule(1.0, [this, &env] {
        msg::ReserveRequest request;
        request.request_id = 1;
        request.count = 1;
        request.requester = env.self();
        rmi::invoke(env, sp, request);
      });
    }
    void on_message(const net::Message& m, net::Env&) override {
      if (m.type == msg::ReserveReply::kType) {
        const auto reply = net::payload_of<msg::ReserveReply>(m);
        granted = reply.daemons;
      }
    }
  };

  // The "daemons" are plain mailbox nodes; they never need to respond.
  struct Inert : net::Actor {
    void on_start(net::Env&) override {}
    void on_message(const net::Message&, net::Env&) override {}
  };

  auto probe_owned = std::make_unique<Probe>();
  Probe* probe = probe_owned.get();
  probe->sp = sp_stub;
  for (int i = 0; i < 3; ++i) {
    probe->daemons.push_back(world.add_node(std::make_unique<Inert>(),
                                            sim::MachineSpec::super_peer_class(),
                                            net::EntityKind::Daemon));
  }
  world.add_node(std::move(probe_owned), sim::MachineSpec::spawner_class(),
                 net::EntityKind::Spawner);

  // Stop before the register sweep (daemon_timeout = 2.5) evicts the inert
  // daemons, which never heartbeat.
  world.run_until(2.0);
  ASSERT_EQ(sp->registered_count(), 2u);  // one granted, two remain
  ASSERT_EQ(probe->granted.size(), 1u);
  // daemons[2] is the only untainted peer: neutral prior beats the demoted.
  EXPECT_EQ(probe->granted[0].node, probe->daemons[2].node);
  EXPECT_TRUE(sp->reputation().is_liar(probe->daemons[0].node));
  EXPECT_LT(sp->reputation().score_of(probe->daemons[1].node),
            sp->reputation().score_of(probe->daemons[2].node));
}

// ---------------------------------------------------------------------------
// Redundant-execution voting against lying workers
// ---------------------------------------------------------------------------

TEST(RedundantExecutionVoting, FlagsEveryLiarWithZeroFalsePositives) {
  SimDeploymentConfig config;
  config.super_peer_count = 2;
  config.daemon_count = 8;  // == task_count: every daemon (liars too) computes
  config.app = churn_app(/*task_count=*/8);
  config.max_sim_time = 600.0;
  config.churn.seed = 7;
  config.churn.liars = 2;
  config.churn.lie_rate = 1.0;
  config.rep.enabled = true;
  config.rep.redundancy = 3;

  SimDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  ASSERT_EQ(report.liar_nodes.size(), 2u);
  EXPECT_GT(report.result_corruptions, 0u);
  EXPECT_GE(report.spawner.audit_rounds, 1u);

  std::set<net::NodeId> injected(report.liar_nodes.begin(),
                                 report.liar_nodes.end());
  std::set<net::NodeId> flagged(report.spawner.flagged_liars.begin(),
                                report.spawner.flagged_liars.end());
  // Every injected liar is caught, and nobody else is (zero false positives).
  EXPECT_EQ(flagged, injected);
}

TEST(RedundantExecutionVoting, HonestFleetIsNeverFlagged) {
  SimDeploymentConfig config;
  config.super_peer_count = 2;
  config.daemon_count = 6;
  config.app = churn_app(/*task_count=*/6);
  config.max_sim_time = 600.0;
  config.rep.enabled = true;
  config.rep.redundancy = 3;

  SimDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_GE(report.spawner.audit_rounds, 1u);
  EXPECT_TRUE(report.spawner.flagged_liars.empty());
  EXPECT_EQ(report.result_corruptions, 0u);
}

// ---------------------------------------------------------------------------
// Churn-script replay across schedulers + §12 conservation gate (satellite)
// ---------------------------------------------------------------------------

SimDeploymentConfig replay_config(std::size_t shards, std::size_t workers) {
  SimDeploymentConfig config;
  config.super_peer_count = 2;
  config.daemon_count = 12;
  config.app = churn_app(/*task_count=*/5);
  config.max_sim_time = 600.0;
  // Jitter off: cross-scheduler bit-identity requires deterministic wire and
  // compute delays (per-shard jitter streams differ by construction, §12).
  config.sim.message_jitter = 0.0;
  config.sim.compute_jitter = 0.0;
  config.sim.shards = shards;
  config.sim.worker_threads = workers;
  config.churn = busy_churn();
  config.rep.enabled = true;
  config.rep.backup_placement = true;
  return config;
}

struct ReplayOutcome {
  std::uint64_t protocol_digest = 0;
  sim::NetStats drained;
  bool completed = false;
};

/// Run to completion, then drain the wire: disconnect every node at the stop
/// time and keep simulating until only silence remains. Guarded timers die
/// with their nodes, so afterwards every frame ever put on the wire has been
/// classified — the §12 conservation identity must hold exactly.
ReplayOutcome run_and_drain(const SimDeploymentConfig& config) {
  SimDeployment deployment(config);
  const auto report = deployment.run();

  ReplayOutcome out;
  out.completed = report.spawner.completed;

  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv(h, report.spawner.completed ? 1 : 0);
  h = fnv(h, bits_of(report.spawner.launch_time));
  h = fnv(h, bits_of(report.spawner.convergence_time));
  h = fnv(h, bits_of(report.spawner.finish_time));
  h = fnv(h, report.spawner.failures_detected);
  h = fnv(h, report.spawner.replacements);
  for (auto it : report.spawner.final_iterations) h = fnv(h, it);
  for (auto it : report.spawner.final_informative_iterations) h = fnv(h, it);
  h = fnv(h, report.flash_joins);
  h = fnv(h, report.burst_disconnections);
  h = fnv(h, report.burst_revivals);
  h = fnv(h, report.slowdowns_applied);
  out.protocol_digest = h;

  sim::SimWorld& world = deployment.world();
  const double stop_time = world.now();
  world.clear_stop();
  world.schedule_global(0.0, [&deployment, &world] {
    for (const net::NodeId node : deployment.daemon_nodes()) {
      if (world.is_up(node)) world.disconnect(node);
    }
    for (const net::Stub& sp : deployment.super_peer_addresses()) {
      if (world.is_up(sp.node)) world.disconnect(sp.node);
    }
  });
  world.run_until(stop_time + 30.0);
  out.drained = world.stats();
  return out;
}

TEST(ChurnReplay, ConservationGateHoldsAfterDrain) {
  const auto outcome = run_and_drain(replay_config(/*shards=*/1, 0));
  ASSERT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.drained.frames_on_wire,
            outcome.drained.delivered + outcome.drained.lost_down +
                outcome.drained.lost_stale);
  EXPECT_GT(outcome.drained.lost_down, 0u);  // churn actually lost frames
}

TEST(ChurnReplay, TraceReplaysBitIdenticallyAcrossShardsAndThreads) {
  const auto classic = run_and_drain(replay_config(/*shards=*/1, 0));
  const auto sharded = run_and_drain(replay_config(/*shards=*/4, 0));
  const auto threaded = run_and_drain(replay_config(/*shards=*/4, 3));
  ASSERT_TRUE(classic.completed);
  ASSERT_TRUE(sharded.completed);
  ASSERT_TRUE(threaded.completed);

  // Protocol outcome (launch/convergence times, failures, replacements,
  // per-task iteration counts, churn-op effects) is bit-identical across the
  // classic scheduler, the sharded scheduler, and sharded + worker threads.
  EXPECT_EQ(classic.protocol_digest, sharded.protocol_digest);
  EXPECT_EQ(sharded.protocol_digest, threaded.protocol_digest);

  // The conservation identity holds on every variant after the drain. (The
  // drained frame totals themselves are NOT compared across schedulers: at
  // the stop/drain instants, global barrier events order differently against
  // equal-timestamp shard events in the two modes, which can shift how the
  // final frames classify — the gate is per-run, the protocol digest is the
  // cross-mode invariant.)
  for (const auto* out : {&classic, &sharded, &threaded}) {
    EXPECT_EQ(out->drained.frames_on_wire,
              out->drained.delivered + out->drained.lost_down +
                  out->drained.lost_stale);
  }
}

// ---------------------------------------------------------------------------
// Defaults stay inert (golden-pin companion; the digest itself lives in
// test_control_plane.cpp)
// ---------------------------------------------------------------------------

TEST(ChurnDefaults, NoChurnNoReputationNoAuditMessagesByDefault) {
  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 5;
  config.app = churn_app(/*task_count=*/4);
  config.max_sim_time = 600.0;

  SimDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_EQ(report.flash_joins, 0u);
  EXPECT_EQ(report.burst_disconnections, 0u);
  EXPECT_EQ(report.slowdowns_applied, 0u);
  EXPECT_TRUE(report.liar_nodes.empty());
  EXPECT_EQ(report.result_corruptions, 0u);
  EXPECT_EQ(report.spawner.audit_rounds, 0u);
  EXPECT_TRUE(report.spawner.flagged_liars.empty());
  // None of the §14 message types ever hits the wire on the default path.
  for (const net::MessageType type :
       {msg::AuditChallenge::kType, msg::AuditReply::kType,
        msg::ReputationReport::kType, msg::BackupPlacement::kType}) {
    EXPECT_EQ(report.net.sent_by_type.count(type), 0u);
  }
}

// ---------------------------------------------------------------------------
// Lying workers: what a forged line looks like
// ---------------------------------------------------------------------------

/// Env that keeps every message it is asked to send.
class RecordingEnv : public net::Env {
 public:
  [[nodiscard]] double now() const override { return 0.0; }
  [[nodiscard]] net::Stub self() const override {
    return net::Stub{9, 1, net::EntityKind::Daemon};
  }
  void send(const net::Stub&, net::Message m) override {
    sent.push_back(std::move(m));
  }
  net::TimerId schedule(double, std::function<void()>) override { return 0; }
  void cancel(net::TimerId) override {}
  void compute(std::function<double()>, std::function<void()>) override {}
  Rng& rng() override { return rng_; }
  void shutdown_self() override {}

  std::vector<net::Message> sent;

 private:
  Rng rng_{1};
};

TEST(CorruptingEnv, ForgedLineDiffersInExactlyOneByte) {
  // The payload of a decoded TaskData views the honest message's body, so
  // the liar forges a copy: the honest body is untouched, and the forged
  // line differs from it in one byte, flipped in its low bit.
  RecordingEnv inner;
  CorruptingEnv liar(inner, /*seed=*/5, /*lie_rate=*/1.0);
  serial::Bytes line(768);
  for (std::size_t i = 0; i < line.size(); ++i) {
    line[i] = static_cast<std::uint8_t>(i * 7);
  }
  msg::TaskData data;
  data.app_id = 3;
  data.from_task = 1;
  data.to_task = 2;
  data.tag = 1;
  data.payload = line;
  const net::Message honest = net::make_message(data);
  const serial::Bytes honest_body = honest.body.bytes();

  for (int round = 0; round < 20; ++round) {
    liar.send(net::Stub{4, 1, net::EntityKind::Daemon}, honest);
  }
  EXPECT_EQ(liar.corruptions(), 20u);
  EXPECT_EQ(honest.body.bytes(), honest_body);
  ASSERT_EQ(inner.sent.size(), 20u);
  for (const net::Message& forged : inner.sent) {
    ASSERT_EQ(forged.type, msg::TaskData::kType);
    EXPECT_EQ(forged.body.size(), honest.body.size());
    const auto decoded = net::payload_of<msg::TaskData>(forged);
    EXPECT_EQ(decoded.app_id, data.app_id);
    EXPECT_EQ(decoded.from_task, data.from_task);
    EXPECT_EQ(decoded.to_task, data.to_task);
    EXPECT_EQ(decoded.tag, data.tag);
    ASSERT_EQ(decoded.payload.size(), line.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (decoded.payload[i] != line[i]) {
        ++differing;
        EXPECT_EQ(decoded.payload[i] ^ line[i], 0x01);
      }
    }
    EXPECT_EQ(differing, 1u);
  }
}

}  // namespace
}  // namespace jacepp::core
