#include "asynciter/convergence.hpp"

#include <gtest/gtest.h>

namespace jacepp::asynciter {
namespace {

TEST(LocalTracker, BecomesStableAfterRequiredStreak) {
  LocalConvergenceTracker tracker(1e-6, 3);
  EXPECT_FALSE(tracker.update(1e-7).has_value());  // streak 1
  EXPECT_FALSE(tracker.update(1e-7).has_value());  // streak 2
  const auto change = tracker.update(1e-7);        // streak 3 → stable
  ASSERT_TRUE(change.has_value());
  EXPECT_TRUE(*change);
  EXPECT_TRUE(tracker.stable());
}

TEST(LocalTracker, LargeErrorResetsStreak) {
  LocalConvergenceTracker tracker(1e-6, 2);
  tracker.update(1e-8);
  tracker.update(1.0);  // reset
  EXPECT_FALSE(tracker.update(1e-8).has_value());
  const auto change = tracker.update(1e-8);
  ASSERT_TRUE(change.has_value());
  EXPECT_TRUE(*change);
}

TEST(LocalTracker, ReportsTransitionBackToUnstable) {
  LocalConvergenceTracker tracker(1e-6, 1);
  ASSERT_TRUE(tracker.update(0.0).value());
  // Stays stable without reporting.
  EXPECT_FALSE(tracker.update(1e-9).has_value());
  // Error spike: transition to unstable reported (the paper's 0 message).
  const auto change = tracker.update(0.5);
  ASSERT_TRUE(change.has_value());
  EXPECT_FALSE(*change);
}

TEST(LocalTracker, ThresholdBoundaryIsInclusive) {
  LocalConvergenceTracker tracker(1e-6, 1);
  const auto change = tracker.update(1e-6);  // exactly at threshold counts
  ASSERT_TRUE(change.has_value());
  EXPECT_TRUE(*change);
}

TEST(LocalTracker, ResetClearsStability) {
  LocalConvergenceTracker tracker(1e-6, 1);
  tracker.update(0.0);
  ASSERT_TRUE(tracker.stable());
  tracker.reset();
  EXPECT_FALSE(tracker.stable());
  // Becoming stable again is reported as a fresh transition.
  EXPECT_TRUE(tracker.update(0.0).has_value());
}

TEST(GlobalBoard, AllStableOnlyWhenEveryCellStable) {
  GlobalConvergenceBoard board(3);
  EXPECT_FALSE(board.all_stable());
  board.set(0, true);
  board.set(1, true);
  EXPECT_FALSE(board.all_stable());
  board.set(2, true);
  EXPECT_TRUE(board.all_stable());
  EXPECT_EQ(board.stable_count(), 3u);
}

TEST(GlobalBoard, InvalidateClearsCell) {
  GlobalConvergenceBoard board(2);
  board.set(0, true);
  board.set(1, true);
  EXPECT_TRUE(board.all_stable());
  board.invalidate(0);
  EXPECT_FALSE(board.all_stable());
  EXPECT_FALSE(board.stable(0));
  EXPECT_TRUE(board.stable(1));
}

TEST(GlobalBoard, RedundantSetsDoNotCorruptCount) {
  GlobalConvergenceBoard board(2);
  board.set(0, true);
  board.set(0, true);
  board.set(0, true);
  EXPECT_EQ(board.stable_count(), 1u);
  board.set(0, false);
  board.set(0, false);
  EXPECT_EQ(board.stable_count(), 0u);
}

TEST(GlobalBoard, OutOfRangeTaskIgnored) {
  GlobalConvergenceBoard board(2);
  board.set(7, true);  // must not crash or count
  EXPECT_EQ(board.stable_count(), 0u);
  EXPECT_FALSE(board.stable(7));
}

TEST(GlobalBoard, EmptyBoardIsNeverStable) {
  GlobalConvergenceBoard board(0);
  EXPECT_FALSE(board.all_stable());
}

TEST(GlobalBoard, ResizeResets) {
  GlobalConvergenceBoard board(1);
  board.set(0, true);
  board.resize(2);
  EXPECT_EQ(board.stable_count(), 0u);
  EXPECT_FALSE(board.all_stable());
}

}  // namespace
}  // namespace jacepp::asynciter
