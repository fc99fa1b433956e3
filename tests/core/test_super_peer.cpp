// Protocol-level Super-Peer scenarios in the simulator.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/daemon.hpp"
#include "core/generic_task.hpp"
#include "core/messages.hpp"
#include "core/super_peer.hpp"
#include "linalg/vector_ops.hpp"
#include "poisson/block_task.hpp"
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
  /// Assign task `task_id` of `app` to `daemon`.
  void assign(const net::Stub& daemon, const AppDescriptor& app,
              TaskId task_id) {
    msg::TaskAssignment assignment;
    assignment.app = app;
    assignment.task_id = task_id;
    assignment.reg.app_id = app.app_id;
    assignment.reg.spawner = env_->self();
    assignment.reg.tasks = {TaskEntry{task_id, daemon}};
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

/// A one-task Poisson application a daemon can run.
AppDescriptor runnable_app() {
  poisson::force_registration();
  poisson::PoissonConfig config;
  config.n = 8;
  AppDescriptor app;
  app.app_id = 1;
  app.program = poisson::PoissonTask::kProgramName;
  app.config = poisson::encode_config(config);
  app.task_count = 1;
  return app;
}

/// One way a peer's TaskAssignment can be unrunnable: the runnable
/// application with one field broken.
struct BadAssignment {
  std::string name;
  AppDescriptor app;
  TaskId task_id = 0;
};

void PrintTo(const BadAssignment& bad, std::ostream* os) { *os << bad.name; }

/// runnable_app() with its Poisson config edited by `edit`.
template <typename Edit>
AppDescriptor poisson_app(std::uint32_t task_count, Edit edit) {
  AppDescriptor app = runnable_app();
  poisson::PoissonConfig config;
  config.n = 8;
  edit(config);
  app.config = poisson::encode_config(config);
  app.task_count = task_count;
  return app;
}

/// A generic application of `task_count` tasks over the 4×4 system
/// 4I x = b, where b has `b_size` entries.
AppDescriptor generic_app(std::uint32_t task_count, std::size_t b_size) {
  GenericMultisplitTask::force_registration();
  GenericConfig config;
  linalg::CsrBuilder builder(4, 4);
  for (std::size_t i = 0; i < 4; ++i) builder.add(i, i, 4.0);
  config.a = builder.build();
  config.b.assign(b_size, 1.0);
  AppDescriptor app = runnable_app();
  app.program = GenericMultisplitTask::kProgramName;
  app.config = serial::encode(config);
  app.task_count = task_count;
  return app;
}

/// Every way an assignment would have aborted the daemon had it accepted
/// it: two descriptor fields, then program configs the task's init()
/// refuses. An unknown program is one more bad assignment; it has its own
/// test.
std::vector<BadAssignment> bad_assignments() {
  std::vector<BadAssignment> out;
  out.push_back({"NoTasks", runnable_app()});
  out.back().app.task_count = 0;
  out.push_back({"TaskIdOutOfRange", runnable_app(), 1});

  out.push_back({"PoissonConfigDoesNotDecode", runnable_app()});
  out.back().app.config = {0xff};
  out.push_back({"PoissonGridSideBelowTwo",
                 poisson_app(1, [](auto& c) { c.n = 1; })});
  // Two blocks of four lines cannot each export a line past four
  // overlapping ones.
  out.push_back({"PoissonOverlapTooLarge",
                 poisson_app(2, [](auto& c) { c.overlap_lines = 4; })});
  out.push_back({"PoissonMoreTasksThanGridLines",
                 poisson_app(9, [](auto&) {})});
  // 2^34 cells: a 128 GiB right-hand side. One line per task keeps the
  // block small, so nothing before the right-hand side fails first.
  out.push_back({"PoissonGridTooLargeForItsRhs",
                 poisson_app(1u << 17, [](auto& c) { c.n = 1u << 17; })});
  out.push_back({"PoissonNegativeWorkScale",
                 poisson_app(1, [](auto& c) { c.work_scale = -1.0; })});

  out.push_back({"GenericConfigDoesNotDecode", generic_app(1, 4)});
  out.back().app.config = {0xff};
  out.push_back({"GenericShapesDisagree", generic_app(1, 3)});
  out.push_back({"GenericMoreTasksThanRows", generic_app(5, 4)});
  return out;
}

/// Reserves the scenario's only daemon for a probe spawner, hands it
/// `assignment`, and runs to `until`; returns the probe.
ReserveProbe* reserve_and_assign(Scenario& s, const AppDescriptor& app,
                                 TaskId task_id, double until) {
  auto probe = std::make_unique<ReserveProbe>();
  ReserveProbe* p = probe.get();
  s.world.add_node(std::move(probe), sim::MachineSpec{}, net::EntityKind::Spawner);
  s.world.run_until(2.0);
  s.world.schedule_global(0.0, [&s, p] { p->request(s.sp_stubs[0], 1); });
  s.world.run_until(4.0);
  EXPECT_EQ(p->granted.size(), 1u);
  s.world.schedule_global(0.0, [p, app, task_id] {
    p->assign(p->granted.at(0), app, task_id);
  });
  s.world.run_until(until);
  return p;
}

TEST(SuperPeer, RunnableAssignmentComputes) {
  // The control for the refusals below: unbroken, the same assignment runs.
  Scenario s(1, 7);
  auto* d = s.add_daemon();
  const ReserveProbe* p = reserve_and_assign(s, runnable_app(), 0, 8.0);
  EXPECT_EQ(d->state(), Daemon::State::Computing);
  EXPECT_GT(d->iteration(), 0u);
  EXPECT_GT(p->heartbeats, 0);
}

/// Every field of an assignment comes from a peer: one this daemon cannot
/// run is refused without touching its state, so the reservation lapses
/// like one that never turned into a task.
void expect_refused_then_rejoins(const BadAssignment& bad) {
  Scenario s(1, 7);
  auto* d = s.add_daemon();
  const ReserveProbe* p = reserve_and_assign(s, bad.app, bad.task_id, 5.0);
  EXPECT_EQ(d->state(), Daemon::State::Reserved);
  EXPECT_EQ(d->task(), nullptr);
  const std::uint64_t attempts = d->bootstrap_attempts();

  // Default reserved_timeout is 6 s; after it, the daemon re-registers.
  s.world.run_until(15.0);
  EXPECT_EQ(d->state(), Daemon::State::Registered);
  EXPECT_GT(d->bootstrap_attempts(), attempts);
  EXPECT_TRUE(s.sps[0]->has_registered(s.daemon_stubs[0]));
  EXPECT_EQ(d->task(), nullptr);
  EXPECT_EQ(d->iteration(), 0u);
  EXPECT_EQ(p->heartbeats, 0);
}

TEST(SuperPeer, UnknownTaskProgramIsRefusedAndDaemonRejoinsPool) {
  BadAssignment bad{"UnknownProgram", runnable_app()};
  bad.app.program = "no-such-program";
  expect_refused_then_rejoins(bad);
}

class AssignmentRefusal : public ::testing::TestWithParam<BadAssignment> {};

TEST_P(AssignmentRefusal, DaemonNeverComputesAndRejoinsPool) {
  expect_refused_then_rejoins(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    BadAssignments, AssignmentRefusal, ::testing::ValuesIn(bad_assignments()),
    [](const ::testing::TestParamInfo<BadAssignment>& info) {
      return info.param.name;
    });

/// Harness actor playing an auditing spawner: it challenges a daemon with
/// re-runs and keeps the replies.
class AuditProbe : public net::Actor {
 public:
  void on_start(net::Env& env) override { env_ = &env; }
  void on_message(const net::Message& m, net::Env&) override {
    if (m.type == msg::AuditReply::kType) {
      replies.push_back(net::payload_of<msg::AuditReply>(m));
    }
  }
  void challenge(const net::Stub& daemon, const AppDescriptor& app,
                 TaskId task_id, std::uint64_t nonce) {
    msg::AuditChallenge challenge;
    challenge.app = app;
    challenge.task_id = task_id;
    challenge.round = 1;
    challenge.nonce = nonce;
    challenge.iterations = 3;
    rmi::invoke(*env_, daemon, challenge);
  }

  net::Env* env_ = nullptr;
  std::vector<msg::AuditReply> replies;
};

TEST(DaemonAudit, ChallengeGoesThroughAssignmentChecks) {
  // An AuditChallenge carries a descriptor from a peer that the daemon
  // instantiates and re-runs. Every unrunnable one (bad_assignments()) is
  // dropped without a reply; the runnable one is answered, and the daemon
  // stays up.
  Scenario s(1, 7);
  auto* d = s.add_daemon();
  auto probe = std::make_unique<AuditProbe>();
  AuditProbe* p = probe.get();
  s.world.add_node(std::move(probe), sim::MachineSpec{},
                   net::EntityKind::Spawner);
  s.world.run_until(2.0);
  ASSERT_EQ(d->state(), Daemon::State::Registered);
  s.world.schedule_global(0.0, [&s, p] {
    std::uint64_t nonce = 1;
    for (const BadAssignment& bad : bad_assignments()) {
      p->challenge(s.daemon_stubs[0], bad.app, bad.task_id, nonce++);
    }
    p->challenge(s.daemon_stubs[0], runnable_app(), 0, 99);
  });
  s.world.run_until(5.0);

  ASSERT_EQ(p->replies.size(), 1u);
  EXPECT_EQ(p->replies[0].nonce, 99u);
  EXPECT_EQ(p->replies[0].task_id, 0u);
  EXPECT_TRUE(s.world.is_current(s.daemon_stubs[0]));
  EXPECT_EQ(d->state(), Daemon::State::Registered);
}

/// Harness actor playing the only backup holder of a task: it reports a
/// checkpoint at iteration 7 and serves `state` for it.
class StateHolder : public net::Actor {
 public:
  explicit StateHolder(serial::Bytes state) : state_(std::move(state)) {}
  void on_start(net::Env&) override {}
  void on_message(const net::Message& m, net::Env& env) override {
    if (m.type == msg::QueryBackup::kType) {
      const auto query = net::payload_of<msg::QueryBackup>(m);
      msg::BackupInfo info;
      info.app_id = query.app_id;
      info.task_id = query.task_id;
      info.available = true;
      info.iteration = 7;
      rmi::invoke(env, m.from, info);
    } else if (m.type == msg::FetchBackup::kType) {
      const auto fetch = net::payload_of<msg::FetchBackup>(m);
      msg::BackupData data;
      data.app_id = fetch.app_id;
      data.task_id = fetch.task_id;
      data.iteration = 7;
      data.state = state_;
      rmi::invoke(env, m.from, data);
      ++fetches;
    }
  }

  serial::Bytes state_;
  int fetches = 0;
};

TEST(DaemonRestore, MisshapedBackupStateRestartsFromZero) {
  // A replacement daemon for task 1 of 2 whose one backup holder serves a
  // state with a 1-value lower boundary instead of n. The daemon refuses it
  // like a failed fetch: one re-query round, then iteration 0.
  AppDescriptor app = runnable_app();
  app.task_count = 2;
  poisson::PoissonTask donor;
  ASSERT_TRUE(donor.init(app, 1));
  const serial::Bytes state = donor.checkpoint();
  serial::Reader r(state);
  serial::Writer w;
  w.f64_vector(r.f64_vector<linalg::Vector>());  // x_ext
  w.f64_vector(r.f64_vector<linalg::Vector>());  // owned_prev
  (void)r.f64_vector<linalg::Vector>();
  w.f64_vector({0.5});                            // lower boundary, 1 of n
  w.f64_vector(r.f64_vector<linalg::Vector>());  // upper boundary
  for (int i = 0; i < 3; ++i) w.u64(r.u64());    // counts and error
  ASSERT_TRUE(r.ok() && r.exhausted());

  Scenario s(1, 7);
  auto* d = s.add_daemon();
  auto holder = std::make_unique<StateHolder>(w.take());
  StateHolder* h = holder.get();
  const net::Stub holder_stub = s.world.add_node(
      std::move(holder), sim::MachineSpec{}, net::EntityKind::Daemon);
  auto probe = std::make_unique<ReserveProbe>();
  ReserveProbe* p = probe.get();
  s.world.add_node(std::move(probe), sim::MachineSpec{}, net::EntityKind::Spawner);
  s.world.run_until(2.0);
  s.world.schedule_global(0.0, [&s, p] { p->request(s.sp_stubs[0], 1); });
  s.world.run_until(4.0);
  ASSERT_EQ(p->granted.size(), 1u);
  s.world.schedule_global(0.0, [p, app, holder_stub] {
    msg::TaskAssignment assignment;
    assignment.app = app;
    assignment.task_id = 1;
    assignment.reg.app_id = app.app_id;
    assignment.reg.spawner = p->env_->self();
    assignment.reg.tasks = {TaskEntry{0, holder_stub},
                            TaskEntry{1, p->granted.at(0)}};
    assignment.restart = true;
    rmi::invoke(*p->env_, p->granted.at(0), assignment);
  });
  s.world.run_until(30.0);

  EXPECT_EQ(h->fetches, 2);
  EXPECT_EQ(d->restores_from_backup(), 0u);
  EXPECT_EQ(d->restarts_from_zero(), 1u);
  EXPECT_EQ(d->state(), Daemon::State::Computing);
  EXPECT_GT(d->iteration(), 0u);
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

// --- PerfConfig is inert -----------------------------------------------------

std::vector<net::Stub> one_bootstrap_address() {
  return {net::Stub{1, 0, net::EntityKind::SuperPeer}};
}

TEST(PerfConfig, BenchmarkAssignmentsConstructADaemon) {
  // The values the benchmark drivers assign: every field on the deployment
  // workloads, the grain alone on the control-plane one.
  PerfConfig deployment;
  deployment.early_send = false;
  deployment.grain = linalg::kVectorOpGrain;
  deployment.pool_buffers = true;
  deployment.simd = false;
  deployment.sell = false;
  PerfConfig control_plane;
  control_plane.grain = linalg::kVectorOpGrain;
  for (const PerfConfig& perf : {PerfConfig{}, deployment, control_plane}) {
    const Daemon daemon(one_bootstrap_address(), TimingConfig{}, perf);
    EXPECT_EQ(daemon.state(), Daemon::State::Bootstrapping);
  }
}

TEST(PerfConfig, EveryOtherValueAborts) {
  struct Case {
    const char* name;
    PerfConfig perf;
  };
  std::vector<Case> cases(6);
  cases[0] = {"early_send", {}};
  cases[0].perf.early_send = true;
  cases[1] = {"grain 1", {}};
  cases[1].perf.grain = 1;
  cases[2] = {"grain 2 * kVectorOpGrain", {}};
  cases[2].perf.grain = 2 * linalg::kVectorOpGrain;
  cases[3] = {"pool_buffers", {}};
  cases[3].perf.pool_buffers = false;
  cases[4] = {"simd", {}};
  cases[4].perf.simd = true;
  cases[5] = {"sell", {}};
  cases[5].perf.sell = true;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_DEATH(Daemon(one_bootstrap_address(), TimingConfig{}, c.perf),
                 "ROADMAP item 2");
  }
}

}  // namespace
}  // namespace jacepp::core
