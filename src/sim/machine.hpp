// Machine and fleet models mirroring the paper's testbed (§7):
//   * 3 Super-Peers on P4 2.40 GHz / 512 MB,
//   * ~100 Daemons from P3 1.266 GHz / 256 MB to P4 3.0 GHz / 1 GB,
//   * a Spawner on P4 2.40 GHz / 512 MB,
//   * a mix of 100 Mb/s and 1 Gb/s Ethernet.
//
// Compute speed is expressed as sustained flops on sparse kernels under the
// paper's Java runtime — far below peak; the defaults put the slowest daemon
// around 100 Mflop/s and the fastest around 300 Mflop/s, preserving the ~2.4x
// CPU heterogeneity of the paper's fleet.
#pragma once

#include <cstddef>
#include <vector>

#include "support/rng.hpp"

namespace jacepp::sim {

struct MachineSpec {
  double flops_per_sec = 200e6;   ///< sustained sparse-kernel throughput
  double bandwidth_bps = 100e6;   ///< NIC bandwidth (bits/s)
  double latency_s = 250e-6;      ///< one-way base latency
  /// Fixed per-message software overhead (Java RMI marshalling, JVM
  /// scheduling, TCP stack) — dominates small-message delay on the paper's
  /// stack and creates the small compute/comm-ratio regime at small n.
  double message_overhead_s = 8e-3;

  /// Lower bound this machine contributes to any wire transfer it is an
  /// endpoint of — the sharded scheduler's lookahead input (DESIGN.md §12):
  /// every frame costs at least both endpoints' latency + per-message
  /// overhead before jitter.
  [[nodiscard]] double min_wire_cost() const {
    return latency_s + message_overhead_s;
  }

  [[nodiscard]] static MachineSpec super_peer_class() {
    // P4 2.40 GHz / 512 MB on the faster network.
    return MachineSpec{220e6, 1000e6, 200e-6, 8e-3};
  }
  [[nodiscard]] static MachineSpec spawner_class() { return super_peer_class(); }
};

/// Parameters of the heterogeneous daemon fleet.
struct FleetModel {
  double min_flops = 100e6;       ///< P3 1.266 GHz class
  double max_flops = 300e6;       ///< P4 3.0 GHz class
  double fast_network_fraction = 0.5;  ///< share of daemons on 1 Gb/s
  double latency_jitter = 0.2;    ///< +/- fraction applied per machine

  /// The paper's two Ethernet classes (§7), the base one-way latency, and
  /// the RMI-style per-message software cost of a 200 Mflop/s machine.
  static constexpr double kSlowBandwidthBps = 100e6;
  static constexpr double kFastBandwidthBps = 1000e6;
  static constexpr double kLatencyS = 250e-6;
  static constexpr double kMessageOverheadS = 8e-3;

  /// Draw `count` daemon machine specs. Deterministic in `rng`.
  [[nodiscard]] std::vector<MachineSpec> draw(std::size_t count, Rng& rng) const;
};

}  // namespace jacepp::sim
