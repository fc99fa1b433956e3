// Host-time spans for the traced benchmark build.
//
// Spans are opened around calls into each layer's public entry points (the
// link-time wrappers in wraps.cpp, the actor wrapper in workloads.cpp and the
// driver's own run span). Each thread keeps its own span stack and per-layer
// totals; a span's self time is its duration minus the durations of the spans
// opened directly inside it, so nested layers (BackupStore::store_frame
// calling checkpoint::decode_frame) are never counted twice. Totals of exited
// threads are folded into a process-wide snapshot; collect() adds the calling
// thread's live totals.
#pragma once

#include <array>
#include <cstdint>

namespace perfbench::trace {

enum class Layer : std::uint8_t {
  Run,                ///< the driver's whole-run span (world bookkeeping)
  CodecEmit,          ///< checkpoint::DeltaEncoder::emit
  CodecDecode,        ///< checkpoint::decode_frame
  BackupStore,        ///< BackupStore::store_frame
  BackupMaterialize,  ///< BackupStore::materialize
  Cg,                 ///< linalg::conjugate_gradient
  DesPop,             ///< sim::EventQueue::pop
  DesSchedule,        ///< sim::EventQueue::schedule / schedule_tagged
  AddNode,            ///< sim::SimWorld::add_node
  ActorSuperPeer,     ///< SuperPeer handlers (cp-100k actor wrapper)
  ActorDaemon,        ///< Daemon handlers (cp-100k actor wrapper)
  LinkEnqueue,        ///< net::Link::enqueue
  LinkNextWireFrame,  ///< net::Link::next_wire_frame
  LinkUnpackBatch,    ///< net::unpack_batch
  kCount
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Work counts taken at the same boundaries as the spans.
struct Counters {
  std::uint64_t emit_bytes = 0;
  std::uint64_t emit_full = 0;
  std::uint64_t decode_bytes = 0;
  std::uint64_t store_needs_full = 0;
  std::uint64_t materialize_failed = 0;
  std::uint64_t cg_iterations = 0;
  double cg_flops = 0.0;
  std::uint64_t actor_messages = 0;
};

struct Snapshot {
  std::array<LayerTotals, kLayerCount> layers{};
  Counters counters;

  [[nodiscard]] const LayerTotals& operator[](Layer layer) const {
    return layers[static_cast<std::size_t>(layer)];
  }
  void add(const Snapshot& other);
};

/// The self-time arithmetic, on caller-supplied timestamps (the unit tests
/// drive it with a fake clock; Span drives it with steady_clock).
class SpanStack {
 public:
  static constexpr std::size_t kMaxDepth = 64;

  void enter(Layer layer, std::int64_t now_ns);
  void exit(std::int64_t now_ns);
  [[nodiscard]] std::size_t depth() const { return depth_; }

  Snapshot totals;

 private:
  struct Frame {
    Layer layer = Layer::Run;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };
  std::array<Frame, kMaxDepth> frames_{};
  std::size_t depth_ = 0;
  /// Frames beyond kMaxDepth are not recorded; their exits are matched here.
  std::size_t overflow_ = 0;
};

std::int64_t now_ns();

/// The calling thread's span stack.
SpanStack& local();

inline Counters& counters() { return local().totals.counters; }

/// RAII span on the calling thread's stack.
class Span {
 public:
  explicit Span(Layer layer) { local().enter(layer, now_ns()); }
  ~Span() { local().exit(now_ns()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// Totals of every exited thread plus the calling thread's, since the last
/// begin_run() or reset().
Snapshot collect();
/// Zero the process-wide totals, the calling thread's and the set-up's.
void reset();
/// Close the set-up: move everything collected so far into setup_totals()
/// and count from zero again, so the run's spans are kept apart from the
/// spans opened while the world was built.
void begin_run();
/// What begin_run() moved aside.
Snapshot setup_totals();

}  // namespace perfbench::trace
