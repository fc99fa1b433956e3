#include "sim/machine.hpp"

namespace jacepp::sim {

std::vector<MachineSpec> FleetModel::draw(std::size_t count, Rng& rng) const {
  std::vector<MachineSpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    MachineSpec spec;
    spec.flops_per_sec = rng.uniform(min_flops, max_flops);
    const bool fast = rng.chance(fast_network_fraction);
    spec.bandwidth_bps = fast ? kFastBandwidthBps : kSlowBandwidthBps;
    spec.latency_s = kLatencyS * rng.uniform(1.0 - latency_jitter, 1.0 + latency_jitter);
    // Slower CPUs marshal/unmarshal proportionally slower.
    spec.message_overhead_s = kMessageOverheadS * (200e6 / spec.flops_per_sec);
    // A fourth draw per machine once picked its RAM, which nothing read; it
    // stays so that a seed still draws the same fleet.
    (void)rng.chance(0.5);
    specs.push_back(spec);
  }
  return specs;
}

}  // namespace jacepp::sim
