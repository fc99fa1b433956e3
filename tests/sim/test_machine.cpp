#include "sim/machine.hpp"

#include <gtest/gtest.h>

namespace jacepp::sim {
namespace {

TEST(Fleet, DrawsRequestedCount) {
  FleetModel model;
  Rng rng(1);
  const auto specs = model.draw(100, rng);
  EXPECT_EQ(specs.size(), 100u);
}

TEST(Fleet, SpeedsWithinConfiguredRange) {
  FleetModel model;
  Rng rng(2);
  for (const auto& spec : model.draw(200, rng)) {
    EXPECT_GE(spec.flops_per_sec, model.min_flops);
    EXPECT_LE(spec.flops_per_sec, model.max_flops);
    EXPECT_GT(spec.latency_s, 0.0);
  }
}

TEST(Fleet, HeterogeneityMatchesPaperRatio) {
  // Paper hardware: P3 1.266 GHz … P4 3.0 GHz — about 2.4x CPU spread.
  FleetModel model;
  Rng rng(3);
  double min = 1e18;
  double max = 0;
  for (const auto& spec : model.draw(500, rng)) {
    min = std::min(min, spec.flops_per_sec);
    max = std::max(max, spec.flops_per_sec);
  }
  EXPECT_GT(max / min, 2.0);
  EXPECT_LT(max / min, 3.5);
}

TEST(Fleet, NetworkMixTracksFraction) {
  FleetModel model;
  model.fast_network_fraction = 0.5;
  Rng rng(4);
  std::size_t fast = 0;
  const auto specs = model.draw(1000, rng);
  for (const auto& spec : specs) {
    if (spec.bandwidth_bps == FleetModel::kFastBandwidthBps) ++fast;
  }
  EXPECT_NEAR(static_cast<double>(fast) / 1000.0, 0.5, 0.06);
}

TEST(Fleet, AllSlowWhenFractionZero) {
  FleetModel model;
  model.fast_network_fraction = 0.0;
  Rng rng(5);
  for (const auto& spec : model.draw(50, rng)) {
    EXPECT_EQ(spec.bandwidth_bps, FleetModel::kSlowBandwidthBps);
  }
}

TEST(Fleet, DeterministicInRng) {
  FleetModel model;
  Rng a(6);
  Rng b(6);
  const auto specs_a = model.draw(20, a);
  const auto specs_b = model.draw(20, b);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(specs_a[i].flops_per_sec, specs_b[i].flops_per_sec);
    EXPECT_EQ(specs_a[i].bandwidth_bps, specs_b[i].bandwidth_bps);
  }
}

}  // namespace
}  // namespace jacepp::sim
