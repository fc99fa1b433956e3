#include "core/deployment_rt.hpp"

#include <chrono>

#include "core/daemon.hpp"
#include "core/messages.hpp"
#include "core/super_peer.hpp"
#include "support/assert.hpp"

namespace jacepp::core {

namespace {

/// Timing constants shrunk to keep threaded runs fast (heartbeats every
/// 50 ms, failure detection within ~300 ms).
TimingConfig fast_rt_timing() {
  TimingConfig t;
  t.heartbeat_period = 0.05;
  t.daemon_timeout = 0.3;
  t.super_peer_timeout = 0.25;
  t.sweep_period = 0.05;
  t.bootstrap_retry = 0.05;
  t.reserve_retry = 0.1;
  t.reserved_timeout = 1.0;
  t.backup_query_timeout = 0.15;
  t.backup_fetch_timeout = 0.3;
  t.final_state_timeout = 0.5;
  return t;
}

}  // namespace

RtDeployment::RtDeployment(RtDeploymentConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  runtime_ = std::make_unique<rt::ThreadRuntime>(config_.seed);
}

RtDeployment::~RtDeployment() {
  if (runtime_ != nullptr) runtime_->shutdown_all();
}

void RtDeployment::start() {
  const TimingConfig timing = fast_rt_timing();
  // Super-peers first: their addresses seed every bootstrap list.
  std::vector<net::Stub> full_stubs;
  for (std::size_t i = 0; i < config_.super_peer_count; ++i) {
    auto sp = std::make_unique<SuperPeer>(timing);
    const net::Stub stub =
        runtime_->add_node(std::move(sp), net::EntityKind::SuperPeer);
    super_peer_addresses_.push_back(stub.address());
    full_stubs.push_back(stub);
  }
  // Link the overlay via the LinkSuperPeers message (thread-safe: the harness
  // cannot poke actor state once worker threads run).
  for (const net::Stub& stub : full_stubs) {
    runtime_->post(stub, net::make_message(msg::LinkSuperPeers{full_stubs}));
  }

  for (std::size_t i = 0; i < config_.daemon_count; ++i) {
    auto daemon = std::make_unique<Daemon>(super_peer_addresses_, timing);
    const net::Stub stub =
        runtime_->add_node(std::move(daemon), net::EntityKind::Daemon);
    daemon_nodes_.push_back(stub.node);
  }

  auto spawner = std::make_unique<Spawner>(
      config_.app, super_peer_addresses_,
      [this](const SpawnerReport& report) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          report_ = report;
        }
        done_cv_.notify_all();
      },
      timing);
  const net::Stub stub =
      runtime_->add_node(std::move(spawner), net::EntityKind::Spawner);
  spawner_node_ = stub.node;
}

std::optional<SpawnerReport> RtDeployment::wait(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait_for(
      lock, std::chrono::microseconds(
                static_cast<std::int64_t>(timeout_seconds * 1e6)),
      [this] { return report_.has_value(); });
  return report_;
}

bool RtDeployment::disconnect_random_computing_daemon() {
  std::vector<std::size_t> computing;
  for (std::size_t i = 0; i < daemon_nodes_.size(); ++i) {
    if (!runtime_->is_up(daemon_nodes_[i])) continue;
    auto* daemon = dynamic_cast<Daemon*>(runtime_->actor(daemon_nodes_[i]));
    if (daemon != nullptr &&
        daemon->observed_state() == Daemon::State::Computing) {
      computing.push_back(i);
    }
  }
  if (computing.empty()) return false;
  disconnect_daemon(computing[rng_.index(computing.size())]);
  return true;
}

void RtDeployment::disconnect_daemon(std::size_t index) {
  JACEPP_CHECK(index < daemon_nodes_.size(), "daemon index out of range");
  runtime_->disconnect(daemon_nodes_[index]);
}

}  // namespace jacepp::core
