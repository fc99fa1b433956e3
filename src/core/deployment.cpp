#include "core/deployment.hpp"

#include <algorithm>

#include "core/adversary.hpp"
#include "core/daemon.hpp"
#include "core/messages.hpp"
#include "core/super_peer.hpp"
#include "support/assert.hpp"
#include "support/logging.hpp"

namespace jacepp::core {

std::vector<double> uniform_disconnect_schedule(std::size_t count, double start,
                                                double horizon,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> times(count);
  for (double& t : times) t = start + rng.next_double() * horizon;
  std::sort(times.begin(), times.end());
  return times;
}

SimDeployment::SimDeployment(SimDeploymentConfig config)
    : config_(std::move(config)) {
  // The comm knobs translate into the world's link-layer config before the
  // world exists; SimConfig::link stays an escape hatch for direct sim users.
  config_.sim.link = msg::link_config_from(config_.comm);
  config_.sim.serialize_links = config_.comm.serialize_links;
  world_ = std::make_unique<sim::SimWorld>(config_.sim);
}

SimDeployment::~SimDeployment() = default;

void SimDeployment::build() {
  JACEPP_CHECK(!built_, "SimDeployment::build called twice");
  built_ = true;

  // --- Super-peer overlay (§5.1) ---
  std::vector<SuperPeer*> super_peers;
  for (std::size_t i = 0; i < config_.super_peer_count; ++i) {
    auto sp = std::make_unique<SuperPeer>(config_.timing, config_.cp,
                                          config_.rep);
    SuperPeer* raw = sp.get();
    const net::Stub stub = world_->add_node(
        std::move(sp), sim::MachineSpec::super_peer_class(), net::EntityKind::SuperPeer);
    super_peer_addresses_.push_back(stub.address());
    super_peer_nodes_.push_back(stub.node);
    super_peers.push_back(raw);
  }
  // Full stubs for the overlay links; address stubs for bootstrap lists.
  std::vector<net::Stub> full_stubs;
  for (std::size_t i = 0; i < super_peer_nodes_.size(); ++i) {
    full_stubs.push_back(net::Stub{super_peer_nodes_[i], 1, net::EntityKind::SuperPeer});
  }
  for (SuperPeer* sp : super_peers) sp->set_linked_peers(full_stubs);

  // --- Heterogeneous daemon fleet (§7 hardware mix) ---
  Rng fleet_rng = world_->rng().split(0xf1ee7);
  const auto specs = config_.fleet.draw(config_.daemon_count, fleet_rng);
  // Lying workers (churn.liars; DESIGN.md §14): a deterministic sample of the
  // fleet is wrapped in a result-corrupting env at build time. The draw comes
  // from a dedicated stream of the churn seed, so it perturbs nothing else.
  std::vector<bool> is_liar(config_.daemon_count, false);
  if (config_.churn.liars > 0 && config_.daemon_count > 0) {
    Rng liar_rng(sim::mix64(config_.churn.seed ^ 0x11a5ull));
    for (const std::size_t idx : liar_rng.sample_indices(
             config_.daemon_count,
             std::min(config_.churn.liars, config_.daemon_count))) {
      is_liar[idx] = true;
    }
  }
  for (std::size_t i = 0; i < config_.daemon_count; ++i) {
    const net::Stub stub = world_->add_node(make_daemon(is_liar[i], i),
                                            specs[i], net::EntityKind::Daemon);
    daemon_nodes_.push_back(stub.node);
    if (is_liar[i]) {
      liar_nodes_.push_back(stub.node);
      report_.liar_nodes.push_back(stub.node);
    }
  }

  // --- Spawner (stable, §5.5) ---
  auto spawner = std::make_unique<Spawner>(
      config_.app, super_peer_addresses_,
      [this](const SpawnerReport&) {
        completed_ = true;
        world_->request_stop();
      },
      config_.timing, config_.cp, config_.rep);
  spawner_ = spawner.get();
  const net::Stub spawner_stub = world_->add_node(
      std::move(spawner), sim::MachineSpec::spawner_class(), net::EntityKind::Spawner);
  spawner_node_ = spawner_stub.node;

  // --- Failure injection schedule (§7 experiment protocol) ---
  for (const double t : config_.disconnect_times) {
    world_->schedule_global(t, [this] { inject_disconnect(); });
  }

  // --- Churn script (DESIGN.md §14; inactive when all op counts are 0) ---
  if (config_.churn.active()) {
    churn_script_.emplace(config_.churn);
    churn_script_->install(*world_, *this);
  }
}

std::unique_ptr<net::Actor> SimDeployment::make_daemon(bool liar,
                                                       std::uint64_t tag) {
  std::unique_ptr<net::Actor> actor = std::make_unique<Daemon>(
      super_peer_addresses_, config_.timing, config_.perf, config_.cp);
  if (liar) {
    actor = std::make_unique<LyingWorker>(
        std::move(actor), sim::mix64(config_.churn.seed ^ (0x11e5ull + tag)),
        config_.churn.lie_rate);
  }
  return actor;
}

// ---------------------------------------------------------------------------
// sim::ChurnDriver hooks (DESIGN.md §14)
// ---------------------------------------------------------------------------

void SimDeployment::flash_join(std::size_t count, Rng& rng) {
  if (completed_) return;
  const auto specs = config_.fleet.draw(count, rng);
  for (std::size_t i = 0; i < count; ++i) {
    const net::Stub stub =
        world_->add_node(make_daemon(/*liar=*/false, /*tag=*/0), specs[i],
                         net::EntityKind::Daemon);
    daemon_nodes_.push_back(stub.node);
    ++report_.flash_joins;
  }
}

std::vector<net::NodeId> SimDeployment::sample_live_daemons(std::size_t count,
                                                           Rng& rng) const {
  std::vector<net::NodeId> pool;
  for (const net::NodeId node : daemon_nodes_) {
    if (world_->is_up(node)) pool.push_back(node);
  }
  const std::size_t n = std::min(count, pool.size());
  // Partial Fisher-Yates: the first n slots become a distinct sample.
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(pool[i], pool[i + rng.index(pool.size() - i)]);
  }
  pool.resize(n);
  return pool;
}

void SimDeployment::failure_burst(std::size_t count, double revive_delay,
                                  Rng& rng) {
  if (completed_) return;
  const std::vector<net::NodeId> victims = sample_live_daemons(count, rng);
  for (const net::NodeId victim : victims) {
    accumulate_counters_from(victim);
    world_->disconnect(victim);
    ++report_.burst_disconnections;
    world_->schedule_global(revive_delay, [this, victim] {
      if (completed_ || world_->is_up(victim)) return;
      // Revived incarnations come back honest — a fresh peer, like the
      // paper's reconnections (liar wrapping is a build-time property).
      world_->revive(victim, make_daemon(/*liar=*/false, /*tag=*/0));
      ++report_.burst_revivals;
    });
  }
  JACEPP_LOG(Info, "deploy", "failure burst: %zu daemons down at %.3f",
             victims.size(), world_->now());
}

void SimDeployment::slow_peers(std::size_t count, double factor, Rng& rng) {
  if (completed_) return;
  for (const net::NodeId node : sample_live_daemons(count, rng)) {
    world_->throttle(node, factor);
    ++report_.slowdowns_applied;
  }
}

void SimDeployment::inject_disconnect() {
  if (completed_) return;
  // Victim pool: daemons currently holding a task (the paper disconnects
  // computing peers), optionally widened to idle daemons.
  std::vector<net::NodeId> candidates;
  if (config_.disconnect_only_computing && spawner_ != nullptr) {
    for (const net::Stub& stub : spawner_->computing_daemons()) {
      if (world_->is_current(stub)) candidates.push_back(stub.node);
    }
  }
  if (candidates.empty()) {
    for (const net::NodeId node : daemon_nodes_) {
      if (world_->is_up(node)) candidates.push_back(node);
    }
  }
  if (candidates.empty()) return;

  const net::NodeId victim = candidates[world_->rng().index(candidates.size())];
  accumulate_counters_from(victim);
  world_->disconnect(victim);
  ++report_.disconnections_executed;
  JACEPP_LOG(Info, "deploy", "disconnected daemon node %llu at %.3f",
             static_cast<unsigned long long>(victim), world_->now());

  if (config_.reconnect) {
    world_->schedule_global(config_.reconnect_delay, [this, victim] {
      if (world_->is_up(victim)) return;  // already revived (should not happen)
      world_->revive(victim, make_daemon(/*liar=*/false, /*tag=*/0));
      ++report_.reconnections_executed;
    });
  }
}

void SimDeployment::accumulate_counters_from(net::NodeId node) {
  net::Actor* actor = world_->actor(node);
  if (auto* liar = dynamic_cast<LyingWorker*>(actor)) {
    report_.result_corruptions += liar->corruptions();
    actor = liar->inner();
  }
  auto* daemon = dynamic_cast<Daemon*>(actor);
  if (daemon == nullptr) return;
  report_.restores_from_backup += daemon->restores_from_backup();
  report_.restarts_from_zero += daemon->restarts_from_zero();
}

SimExperimentReport SimDeployment::run() {
  if (!built_) build();
  world_->run_until(config_.max_sim_time);

  // Aggregate counters from every daemon incarnation still owned by the
  // world (replaced incarnations were accumulated at disconnect time).
  for (const net::NodeId node : daemon_nodes_) {
    accumulate_counters_from(node);
  }

  if (spawner_ != nullptr) {
    report_.spawner = spawner_->report();
    for (const auto it : report_.spawner.final_iterations) {
      report_.total_iterations_completed += it;
    }
  }
  report_.net = world_->stats();
  report_.comm = world_->comm_stats().snapshot();
  report_.shards = world_->shard_count();
  report_.sim_end_time = world_->now();
  return report_;
}

}  // namespace jacepp::core
