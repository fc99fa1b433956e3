#include "sim/churn.hpp"

#include <algorithm>

#include "sim/world.hpp"
#include "support/assert.hpp"

namespace jacepp::sim {

namespace {

/// Per-kind substream tags: each op family draws times from its own stream so
/// adding bursts to a config never moves the flash-crowd times it already had.
constexpr std::uint64_t kCrowdTag = 0xC4011Dull;
constexpr std::uint64_t kBurstTag = 0xB5257ull;
constexpr std::uint64_t kSlowTag = 0x510Eull;

void append_ops(ChurnTrace& trace, const ChurnScriptConfig& config,
                ChurnOpKind kind, std::uint64_t tag, std::size_t events,
                std::size_t count, double factor) {
  Rng stream(mix64(config.seed ^ (tag * 0x9E3779B97F4A7C15ull)));
  for (std::size_t i = 0; i < events; ++i) {
    ChurnOp op;
    op.time = config.start + stream.next_double() * config.horizon;
    op.kind = kind;
    op.count = count;
    op.factor = factor;
    // A private victim-selection seed per op: stable under reordering, so the
    // sort below cannot change which nodes an op picks.
    op.rng_seed = mix64(config.seed ^ (tag + 0x9E3779B97F4A7C15ull * (i + 1)));
    trace.ops.push_back(op);
  }
}

}  // namespace

ChurnTrace generate_churn_trace(const ChurnScriptConfig& config) {
  JACEPP_CHECK(config.horizon >= 0.0, "churn: horizon must be >= 0");
  JACEPP_CHECK(config.slow_factor >= 1.0, "churn: slow_factor must be >= 1");
  ChurnTrace trace;
  append_ops(trace, config, ChurnOpKind::FlashCrowd, kCrowdTag,
             config.flash_crowds, config.flash_size, 1.0);
  append_ops(trace, config, ChurnOpKind::FailureBurst, kBurstTag,
             config.failure_bursts, config.burst_size, 1.0);
  append_ops(trace, config, ChurnOpKind::Slowdown, kSlowTag, config.slowdowns,
             config.slowdown_size, config.slow_factor);
  std::stable_sort(trace.ops.begin(), trace.ops.end(),
                   [](const ChurnOp& a, const ChurnOp& b) {
                     return a.time < b.time;
                   });
  return trace;
}

ChurnScript::ChurnScript(ChurnScriptConfig config)
    : config_(config), trace_(generate_churn_trace(config_)) {}

void ChurnScript::install(SimWorld& world, ChurnDriver& driver) {
  for (const ChurnOp& op : trace_.ops) {
    const double delay = op.time > world.now() ? op.time - world.now() : 0.0;
    world.schedule_global(delay, [this, &driver, op] {
      Rng rng(op.rng_seed);
      switch (op.kind) {
        case ChurnOpKind::FlashCrowd:
          driver.flash_join(op.count, rng);
          break;
        case ChurnOpKind::FailureBurst:
          driver.failure_burst(op.count, config_.revive_delay, rng);
          break;
        case ChurnOpKind::Slowdown:
          driver.slow_peers(op.count, op.factor, rng);
          break;
      }
    });
  }
}

}  // namespace jacepp::sim
