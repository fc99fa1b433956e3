#include "trace.hpp"

#include <chrono>
#include <mutex>

namespace perfbench::trace {

namespace {

std::mutex g_mutex;
Snapshot g_exited;  // guarded by g_mutex
Snapshot g_setup;   // guarded by g_mutex

/// Thread-local stack whose totals outlive the thread in g_exited.
struct ThreadStack {
  SpanStack stack;
  ~ThreadStack() {
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_exited.add(stack.totals);
  }
};

thread_local ThreadStack t_stack;

}  // namespace

void Snapshot::add(const Snapshot& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    layers[i].calls += other.layers[i].calls;
    layers[i].total_ns += other.layers[i].total_ns;
    layers[i].self_ns += other.layers[i].self_ns;
  }
  counters.emit_bytes += other.counters.emit_bytes;
  counters.emit_full += other.counters.emit_full;
  counters.decode_bytes += other.counters.decode_bytes;
  counters.store_needs_full += other.counters.store_needs_full;
  counters.materialize_failed += other.counters.materialize_failed;
  counters.cg_iterations += other.counters.cg_iterations;
  counters.cg_flops += other.counters.cg_flops;
  counters.actor_messages += other.counters.actor_messages;
}

void SpanStack::enter(Layer layer, std::int64_t now) {
  if (depth_ == kMaxDepth) {
    ++overflow_;
    return;
  }
  frames_[depth_++] = Frame{layer, now, 0};
}

void SpanStack::exit(std::int64_t now) {
  if (overflow_ > 0) {
    --overflow_;
    return;
  }
  if (depth_ == 0) return;
  const Frame& frame = frames_[--depth_];
  const std::int64_t duration = now - frame.start_ns;
  LayerTotals& t = totals.layers[static_cast<std::size_t>(frame.layer)];
  ++t.calls;
  t.total_ns += duration;
  t.self_ns += duration - frame.child_ns;
  if (depth_ > 0) frames_[depth_ - 1].child_ns += duration;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanStack& local() { return t_stack.stack; }

Snapshot collect() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  Snapshot s = g_exited;
  s.add(t_stack.stack.totals);
  return s;
}

void reset() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_exited = Snapshot{};
  g_setup = Snapshot{};
  t_stack.stack.totals = Snapshot{};
}

void begin_run() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_setup.add(g_exited);
  g_setup.add(t_stack.stack.totals);
  g_exited = Snapshot{};
  t_stack.stack.totals = Snapshot{};
}

Snapshot setup_totals() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_setup;
}

}  // namespace perfbench::trace
