// ChurnScript: deterministic fault-injection for SimWorld experiments
// (DESIGN.md §14). A seeded config expands into a fixed trace of churn
// operations — flash-crowd joins, correlated failure bursts, slow-peer
// throttles — installed as schedule_global events, so a (seed, scenario,
// shards) triple replays the exact same fault sequence bit-for-bit across
// `sim.shards` and worker-thread counts, like every other subsystem.
//
// The script is pure scheduling: it knows nothing about daemons, spawners or
// reputations. A ChurnDriver (implemented by the deployment harness, which
// owns actor construction) applies each operation to concrete nodes. Victim
// and machine-class selection draw from a per-operation Rng seeded from the
// trace, never from the world's main stream, so adding a churn op cannot
// perturb any other random decision in the run.
#pragma once

#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace jacepp::sim {

class SimWorld;

/// Settings of the generated churn trace (`churn.*`). All-zero counts — the
/// default — generate an empty trace and install nothing: the run is
/// bit-identical to a world without a script.
struct ChurnScriptConfig {
  std::uint64_t seed = 1;      ///< trace randomness (op times + victim draws)
  double start = 5.0;          ///< earliest op time (simulated seconds)
  double horizon = 60.0;       ///< ops are drawn in [start, start + horizon]
  std::size_t flash_crowds = 0;  ///< flash-crowd join events
  std::size_t flash_size = 8;    ///< fresh daemons per flash crowd
  std::size_t failure_bursts = 0;  ///< correlated crash-stop bursts
  std::size_t burst_size = 3;      ///< victims per burst
  double revive_delay = 20.0;    ///< seconds a burst victim stays down before
                                 ///< it reconnects as a fresh peer
  std::size_t slowdowns = 0;     ///< slow-peer events (service-time scaling)
  std::size_t slowdown_size = 1; ///< peers throttled per event
  double slow_factor = 8.0;      ///< flops/bandwidth divisor (>= 1)
  std::size_t liars = 0;         ///< lying workers injected at build time
  double lie_rate = 1.0;         ///< per-result corruption probability

  /// True when the trace schedules at least one operation. `liars` is
  /// build-time actor wrapping, not a scheduled op, so it does not count.
  [[nodiscard]] bool active() const {
    return flash_crowds + failure_bursts + slowdowns > 0;
  }
};

enum class ChurnOpKind : std::uint8_t { FlashCrowd, FailureBurst, Slowdown };

/// One scheduled fault-injection operation.
struct ChurnOp {
  double time = 0.0;           ///< absolute simulated time
  ChurnOpKind kind = ChurnOpKind::FlashCrowd;
  std::size_t count = 0;       ///< joins / victims / throttled peers
  double factor = 1.0;         ///< slowdown divisor (Slowdown only)
  std::uint64_t rng_seed = 0;  ///< private substream for victim selection
};

/// The fully expanded script: ops sorted ascending by time (ties keep the
/// deterministic generation order: crowds, then bursts, then slowdowns).
struct ChurnTrace {
  std::vector<ChurnOp> ops;
};

/// Expand a config into its trace. Pure function of the config — two calls
/// with equal configs return identical traces on every platform.
[[nodiscard]] ChurnTrace generate_churn_trace(const ChurnScriptConfig& config);

/// Applies churn operations to concrete nodes. Implemented by the deployment
/// harness; each hook runs inside a schedule_global event (single-threaded at
/// a round barrier, free to touch any node) and must draw victim/machine
/// randomness only from the supplied per-op Rng.
class ChurnDriver {
 public:
  virtual ~ChurnDriver() = default;
  virtual void flash_join(std::size_t count, Rng& rng) = 0;
  /// Crash `count` peers; each revives `revive_delay` seconds later.
  virtual void failure_burst(std::size_t count, double revive_delay,
                             Rng& rng) = 0;
  virtual void slow_peers(std::size_t count, double factor, Rng& rng) = 0;
};

class ChurnScript {
 public:
  explicit ChurnScript(ChurnScriptConfig config);

  [[nodiscard]] const ChurnScriptConfig& config() const { return config_; }
  [[nodiscard]] const ChurnTrace& trace() const { return trace_; }

  /// Schedule every op of the trace through `world.schedule_global`. The
  /// driver must outlive the run. Call once, before the world runs past
  /// `config.start`.
  void install(SimWorld& world, ChurnDriver& driver);

 private:
  ChurnScriptConfig config_;
  ChurnTrace trace_;
};

}  // namespace jacepp::sim
