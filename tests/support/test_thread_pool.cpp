#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace jacepp {
namespace {

class ThreadPoolCoverage : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadPoolCoverage, EveryIndexVisitedExactlyOnce) {
  // Every run() calls body(lane) once per lane, lane 0 on the caller, and
  // returns only after all lanes finish. force_workers: spawn the real
  // workers even when the test host has fewer cores than lanes.
  RoundWorkerPool pool(GetParam(), /*force_workers=*/true);
  ASSERT_EQ(pool.lanes(), GetParam());
  const auto caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> visits(pool.lanes());
  for (int round = 1; round <= 50; ++round) {
    pool.run([&](std::size_t lane) {
      ASSERT_LT(lane, visits.size());
      if (lane == 0) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
      }
      visits[lane].fetch_add(1);
    });
    for (std::size_t lane = 0; lane < visits.size(); ++lane) {
      ASSERT_EQ(visits[lane].load(), round) << "lane " << lane;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ThreadPoolCoverage,
                         ::testing::Values(1, 2, 3, 8));

TEST(RoundWorkerPool, LaneExceptionReachesCallerAndCrewStaysUsable) {
  RoundWorkerPool pool(3, /*force_workers=*/true);
  std::atomic<int> calls{0};
  EXPECT_THROW(pool.run([&](std::size_t lane) {
                 calls.fetch_add(1);
                 if (lane == 2) throw std::runtime_error("lane 2");
               }),
               std::runtime_error);
  EXPECT_EQ(calls.load(), 3);  // the barrier still waited for every lane
  pool.run([&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 6);
}

}  // namespace
}  // namespace jacepp
