// bench_comm's flaky-consumer scenario at its smoke size (n = 48, 6 tasks,
// 2 disconnections, a 0.25 s flush window), coalescing off and on. Every
// heartbeat and 1/0 state report must reach its receiver from the daemon
// that sent it, so each disconnection is detected once (no live daemon is
// declared dead and replaced) and the run converges.
#include <gtest/gtest.h>

#include "bench_comm.hpp"

namespace jacepp::bench {
namespace {

void expect_completes_detecting_each_disconnection(bool coalesce) {
  const ExperimentParams p = flaky_consumer_params(/*smoke=*/true, 42);
  core::SimDeploymentConfig config = make_config(p);
  config.comm = flaky_consumer_comm(coalesce, 0.25);
  core::SimDeployment deployment(config);
  const core::SimExperimentReport report = deployment.run();

  EXPECT_TRUE(report.spawner.completed);
  EXPECT_EQ(report.spawner.failures_detected, p.disconnections);
}

TEST(FlakyConsumer, CoalescingOffCompletesDetectingEachDisconnection) {
  expect_completes_detecting_each_disconnection(false);
}

TEST(FlakyConsumer, CoalescingOnCompletesDetectingEachDisconnection) {
  expect_completes_detecting_each_disconnection(true);
}

}  // namespace
}  // namespace jacepp::bench
