// Spawner protocol scenarios with a synthetic task program ("test.ticker"):
// launch gating, late capacity, failure detection, replacement, halt and
// final-state collection — without any numerical machinery.
#include <gtest/gtest.h>

#include "core/daemon.hpp"
#include "core/deployment.hpp"
#include "core/spawner.hpp"
#include "core/super_peer.hpp"
#include "sim/world.hpp"

namespace jacepp::core {
namespace {

/// Converges deterministically: local error = 1/iteration.
class TickerTask : public Task {
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

const char* kTicker = "test.ticker";

void register_ticker() {
  static ProgramRegistrar registrar(kTicker, [] {
    return std::unique_ptr<Task>(new TickerTask());
  });
}

AppDescriptor ticker_app(std::uint32_t tasks) {
  register_ticker();
  AppDescriptor app;
  app.app_id = 7;
  app.program = kTicker;
  app.task_count = tasks;
  app.checkpoint_every = 5;
  app.backup_peer_count = 2;
  app.convergence_threshold = 0.05;  // stable once iteration >= 20
  app.stable_iterations_required = 3;
  return app;
}

TEST(Spawner, LaunchesAndCompletes) {
  SimDeploymentConfig config;
  config.super_peer_count = 2;
  config.daemon_count = 4;
  config.app = ticker_app(3);
  config.max_sim_time = 200.0;
  SimDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_GT(report.spawner.launch_time, 0.0);
  EXPECT_GT(report.spawner.convergence_time, report.spawner.launch_time);
  // Every task must reach at least the stability point (20 + 3 iterations).
  for (const auto it : report.spawner.final_iterations) {
    EXPECT_GE(it, 22u);
  }
  EXPECT_EQ(report.spawner.failures_detected, 0u);
}

TEST(Spawner, WaitsForLateCapacity) {
  // Only 1 daemon exists at launch; the app needs 3. Two more join at t=5;
  // the reservation watchdog must pick them up and launch then.
  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 1;
  config.app = ticker_app(3);
  config.max_sim_time = 300.0;
  SimDeployment deployment(config);
  deployment.build();

  auto& world = deployment.world();
  world.schedule_global(5.0, [&] {
    for (int i = 0; i < 2; ++i) {
      world.add_node(std::make_unique<Daemon>(
                         std::vector<net::Stub>(
                             deployment.super_peer_addresses()),
                         TimingConfig{}),
                     sim::MachineSpec{}, net::EntityKind::Daemon);
    }
  });
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_GT(report.spawner.launch_time, 5.0);
}

TEST(Spawner, ReplacesFailedDaemonAndFinishes) {
  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 5;  // 3 computing + 2 spares
  config.app = ticker_app(3);
  // Stable at iteration 500 (~2.5 s of compute) so the disconnection at
  // t=1.8 lands mid-run whether launch was immediate or waited one
  // reservation-retry period.
  config.app.convergence_threshold = 0.002;
  config.disconnect_times = {1.8};
  config.reconnect = false;  // replacement must come from the spares
  config.max_sim_time = 300.0;
  SimDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_EQ(report.disconnections_executed, 1u);
  EXPECT_EQ(report.spawner.failures_detected, 1u);
  EXPECT_EQ(report.spawner.replacements, 1u);
  for (const auto it : report.spawner.final_iterations) EXPECT_GE(it, 502u);
}

TEST(Spawner, CollectsAllFinalStates) {
  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 4;
  config.app = ticker_app(4);
  config.max_sim_time = 200.0;
  SimDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  for (const auto& payload : report.spawner.final_payloads) {
    serial::Reader r(payload);
    (void)r.u64();
    (void)r.u64();
    EXPECT_TRUE(r.ok());
  }
}

TEST(Spawner, SingleTaskApplication) {
  SimDeploymentConfig config;
  config.super_peer_count = 1;
  config.daemon_count = 1;
  config.app = ticker_app(1);
  config.max_sim_time = 200.0;
  SimDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.spawner.completed);
  EXPECT_GE(report.spawner.max_iteration(), 22u);
}

TEST(Spawner, UniformScheduleHelper) {
  const auto times = uniform_disconnect_schedule(10, 5.0, 20.0, 77);
  EXPECT_EQ(times.size(), 10u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_GE(times[i], 5.0);
    EXPECT_LE(times[i], 25.0);
    if (i > 0) {
      EXPECT_GE(times[i], times[i - 1]);  // sorted
    }
  }
  // Deterministic in the seed.
  EXPECT_EQ(uniform_disconnect_schedule(10, 5.0, 20.0, 77), times);
}

}  // namespace
}  // namespace jacepp::core
