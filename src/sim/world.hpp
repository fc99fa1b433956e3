// SimWorld: the discrete-event P2P network simulator.
//
// Each entity (Actor) is attached to a simulated machine (MachineSpec). The
// world models:
//   * message latency + bandwidth (per the slower endpoint's NIC) with
//     deterministic jitter;
//   * crash-stop disconnections: messages to a down node are lost silently
//     (the paper's loss-tolerant asynchronous semantics);
//   * stale stubs: a revived node has a higher incarnation, and messages
//     addressed to an old incarnation are dropped;
//   * compute cost: real numerics execute inside `Env::compute`, and the
//     returned flop count is charged against the machine's sustained speed;
//     compute units on a node serialize while message handling continues
//     (modelling JaceP2P's communication/computation overlap).
//
// Execution (DESIGN.md §12): the world is split into `sim.shards` logical
// partitions — nodes map to shards by a stable hash of their NodeId — each
// owning its own EventQueue, jitter Rng stream, NetStats accumulator and
// outbound link queues. shards == 1 (the default) runs the classic
// single-queue scheduler and is bit-identical to the pre-shard implementation.
// shards >= 2 runs a conservative parallel protocol: every round the
// coordinator computes the global earliest event time and, per shard, a
// lookahead (the lower bound on any frame's flight time into that shard,
// derived from the MachineSpecs and the jitter config), shards execute their
// events below `t_min + lookahead` concurrently on a worker pool, and
// cross-shard frames are exchanged through per-shard outboxes merged in
// deterministic (time, shard, seq) order at the round barrier.
//
// Determinism: one seed drives every random draw, and simultaneous events fire
// in insertion order, so a (seed, scenario, shards) triple replays
// bit-for-bit — independent of the worker-thread count driving the rounds.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/env.hpp"
#include "net/link.hpp"
#include "net/message.hpp"
#include "net/stub.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"

namespace jacepp {
class RoundWorkerPool;
}

namespace jacepp::sim {

struct NetStats {
  std::uint64_t sent = 0;         ///< actor-level sends (pre link layer)
  std::uint64_t delivered = 0;    ///< wire frames delivered
  std::uint64_t lost_down = 0;    ///< destination node disconnected
  std::uint64_t lost_stale = 0;   ///< destination incarnation outdated
  std::uint64_t bytes_sent = 0;   ///< wire bytes (post coalescing)
  std::uint64_t frames_on_wire = 0;  ///< frames put on the wire (pre delivery)
  /// Frames whose endpoints live on different shards, routed through the
  /// round-barrier mailboxes. Always 0 with shards == 1.
  std::uint64_t cross_shard_frames = 0;
  std::unordered_map<net::MessageType, std::uint64_t> sent_by_type;
  /// Wire frames delivered, by message type.
  std::unordered_map<net::MessageType, std::uint64_t> delivered_by_type;

  [[nodiscard]] std::uint64_t lost() const { return lost_down + lost_stale; }
};

struct SimConfig {
  std::uint64_t seed = 42;
  double max_time = 1e8;          ///< hard stop (simulated seconds)
  double message_jitter = 0.05;   ///< fractional +/- jitter on transfer delay
  double compute_jitter = 0.02;   ///< fractional +/- jitter on compute time
  /// Staleness-aware comm path (net/link.hpp). Dormant unless
  /// `link.flush_window > 0` or `serialize_links` — when dormant, every send
  /// bypasses the link layer and behaves exactly as before it existed.
  net::LinkConfig link;
  /// Model one in-flight frame per directed link: the next frame leaves only
  /// after the previous one's transmission occupancy (overhead + bytes/bw)
  /// elapses. Makes slow-consumer backlogs — and what coalescing saves — show
  /// up in delivered-message counts instead of just queue lengths.
  bool serialize_links = false;
  /// Logical world partitions (`sim.shards`), clamped to [1, 4096]. 1 is the
  /// classic single-queue scheduler, bit-identical to the pre-shard
  /// implementation.
  std::size_t shards = 1;
  /// Worker threads driving shard rounds. 0 sizes the pool automatically
  /// (min(shards, hardware threads)); an explicit value forces that many
  /// lanes even on fewer cores (determinism tests exercise thread-count
  /// independence this way). Never affects results — only wall time.
  std::size_t worker_threads = 0;
};

/// Directed link identity (sender, receiver), used as a hash key for the
/// per-shard outbound link queues.
struct LinkKey {
  net::NodeId from = 0;
  net::NodeId to = 0;
  bool operator==(const LinkKey& other) const {
    return from == other.from && to == other.to;
  }
};

/// SplitMix64 finalizer: a full-avalanche 64-bit mix, stable across platforms
/// (pure integer arithmetic — the shard assignment below must replay).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Two-step hash combine over (from, to). The previous implementation hashed
/// `from * C ^ to` — `to` entered unmixed, so with libstdc++'s identity
/// std::hash the low bits of `to` mapped straight onto bucket indices and
/// dense all-to-all worlds clustered. Each id is now avalanched before it is
/// folded in (boost::hash_combine shape, 64-bit constants);
/// tests/sim/test_world.cpp checks the collision distribution.
struct LinkKeyHash {
  std::size_t operator()(const LinkKey& k) const {
    std::uint64_t h = mix64(k.from + 0x9E3779B97F4A7C15ull);
    h ^= mix64(k.to + 0x9E3779B97F4A7C15ull) + 0x9E3779B97F4A7C15ull +
         (h << 6) + (h >> 2);
    return static_cast<std::size_t>(mix64(h));
  }
};

class SimWorld {
 public:
  explicit SimWorld(SimConfig config = {});
  ~SimWorld();

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  /// Attach an actor to a fresh simulated machine; it is up immediately and
  /// its on_start runs as a time-now event.
  net::Stub add_node(std::unique_ptr<net::Actor> actor, const MachineSpec& spec,
                     net::EntityKind kind);

  /// Crash-stop: the node stops processing instantly and silently; pending
  /// timers die; in-flight messages to it are lost.
  void disconnect(net::NodeId node);

  /// Bring a previously disconnected node back with a NEW actor and a bumped
  /// incarnation (the paper's "reconnected about 20 seconds later" peers are
  /// fresh daemons). Stubs of the old incarnation become stale.
  net::Stub revive(net::NodeId node, std::unique_ptr<net::Actor> actor);

  [[nodiscard]] bool is_up(net::NodeId node) const;
  /// Up AND the stub's incarnation is current.
  [[nodiscard]] bool is_current(const net::Stub& stub) const;

  /// Direct access to a node's actor, for harness-side result extraction.
  /// Returns nullptr for unknown/disconnected nodes.
  [[nodiscard]] net::Actor* actor(net::NodeId node);

  /// Slow-peer fault injection (DESIGN.md §14): divide the node's sustained
  /// flop rate and NIC bandwidth by `factor` (>= 1). Latency and per-message
  /// overhead are untouched, so the node's wire cost (the round-horizon
  /// input) does not change. Call from a schedule_global event (round
  /// barrier) only.
  void throttle(net::NodeId node, double factor);

  /// Run until stop is requested, the event queue drains, or max_time passes.
  void run();
  /// Run at most until absolute time `t`; returns true if stop was requested.
  bool run_until(double t);
  /// Stop at the next event boundary (classic) or round boundary (sharded;
  /// the requesting shard additionally ends its round early). Safe to call
  /// from actor code on any shard.
  void request_stop();
  /// Re-arm a stopped world so a harness can keep simulating past the point
  /// where a completion callback requested the stop.
  void clear_stop();
  [[nodiscard]] bool stop_requested() const {
    return stopped_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] double now() const { return now_; }

  /// Harness-level event not tied to any node's liveness. With shards >= 2
  /// these run single-threaded at round barriers, before any shard event with
  /// an equal or later timestamp — they may safely touch any node.
  EventId schedule_global(double delay, std::function<void()> fn);

  Rng& rng() { return rng_; }
  /// Aggregated network counters. With shards >= 2 this folds the per-shard
  /// accumulators into one snapshot on every call; treat the reference as
  /// read-only between calls.
  NetStats& stats();
  const NetStats& stats() const;
  net::CommStats& comm_stats() { return comm_stats_; }
  const net::CommStats& comm_stats() const { return comm_stats_; }

  /// True when sends go through per-link queues instead of straight onto the
  /// wire (see SimConfig::link / serialize_links).
  [[nodiscard]] bool link_layer_active() const {
    return config_.serialize_links || config_.link.flush_window > 0.0;
  }

  // --- sharded-scheduler introspection (bench_scale, contract tests) ---
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Stable shard assignment: pure function of (id, shard_count), identical
  /// across runs, platforms and worker-thread counts.
  [[nodiscard]] static std::uint32_t shard_of(net::NodeId id,
                                              std::size_t shard_count) {
    return shard_count <= 1
               ? 0u
               : static_cast<std::uint32_t>(mix64(id) % shard_count);
  }
  /// Events executed so far, summed over shards (and the classic loop).
  [[nodiscard]] std::uint64_t events_executed() const;
  /// Parallel rounds completed (0 in classic mode).
  [[nodiscard]] std::uint64_t rounds_executed() const { return rounds_; }
  /// Cumulative events executed per shard (max/mean of this vector is the
  /// shard occupancy ratio).
  [[nodiscard]] std::vector<std::uint64_t> shard_event_counts() const;

 private:
  class NodeEnv;
  struct Shard;

  struct Node {
    std::unique_ptr<net::Actor> actor;
    std::unique_ptr<NodeEnv> env;
    MachineSpec spec;
    net::Stub stub;
    bool up = false;
    double busy_until = 0.0;
    Rng rng{0};
    std::uint32_t shard = 0;  ///< shard_of(id, shards), fixed for the run
  };

  struct LinkState {
    net::Link link;
    bool busy = false;          ///< a frame occupies the wire (serialize_links)
    double next_flush = 0.0;    ///< earliest time the next flush may start
    bool flush_armed = false;   ///< a flush event is already scheduled
    double last_arrival = 0.0;  ///< arrival time of the latest frame sent
    LinkState(const net::LinkConfig* config, net::CommStats* stats)
        : link(config, stats) {}
  };

  /// A cross-shard wire frame held in its sender's outbox until the round
  /// barrier. Liveness/incarnation checks happen at arrival on the
  /// destination shard (the sender must not read another shard's state).
  struct CrossFrame {
    double arrival = 0.0;
    net::Stub to;
    net::Message message;
    std::uint32_t dest_shard = 0;
    /// Send order within the owning outbox: the per-shard sort key is
    /// (arrival, seq), so equal-arrival frames keep send order and the k-way
    /// merge reproduces the old concat + stable_sort order exactly.
    std::uint64_t seq = 0;
  };

  /// A wire frame in flight, parked in its destination shard until its
  /// arrival event fires. The event's closure captures only (world, shard,
  /// slot), which fits std::function's inline buffer, so scheduling a
  /// delivery allocates nothing.
  struct Parked {
    /// Same-shard: the destination with the incarnation resolved at send
    /// (deliver_wire). Cross-shard: the stub as addressed (deliver_cross).
    net::Stub to;
    net::Message message;
    bool cross = false;
  };

  /// One world partition: everything a round executes without touching
  /// another shard's mutable state.
  struct Shard {
    EventQueue queue;
    double now = 0.0;
    Rng rng{0};                 ///< per-shard jitter stream (shards >= 2)
    Rng* link_rng = nullptr;    ///< &world.rng_ classic, &rng sharded
    NetStats local;             ///< per-shard counters (shards >= 2)
    NetStats* stats = nullptr;  ///< &world.stats_ classic, &local sharded
    std::unordered_map<LinkKey, LinkState, LinkKeyHash> links;
    std::vector<CrossFrame> outbox;
    /// Frames in flight to this shard's nodes, and the free slots among
    /// them. Only this shard's lane touches them during a round; the barrier
    /// merge parks cross-shard arrivals here single-threaded. Both grow to
    /// the shard's high-water mark of frames in flight and are reused.
    std::vector<Parked> parked;
    std::vector<std::uint32_t> parked_free;
    std::uint64_t executed = 0;
    bool stop_round = false;    ///< set by request_stop() on this shard
    /// This round's conservative horizon, written by the coordinator before
    /// the crew is released.
    double round_horizon = 0.0;
  };

  /// The node with id `id`, or nullptr for an id never allocated.
  Node* find_node(net::NodeId id) {
    return id - 1 < nodes_.size() ? nodes_[id - 1].get() : nullptr;
  }
  const Node* find_node(net::NodeId id) const {
    return id - 1 < nodes_.size() ? nodes_[id - 1].get() : nullptr;
  }
  Node& node_ref(net::NodeId id);
  const Node& node_ref(net::NodeId id) const;
  [[nodiscard]] bool alive_at(net::NodeId id, net::Incarnation inc) const;
  Shard& shard_for(net::NodeId id) { return *shards_[node_ref(id).shard]; }

  /// Schedule an event that only fires if (node, inc) is still the live
  /// incarnation at fire time. The guard rides in the event's tag, so `fn`
  /// is queued as it is: no wrapper closure to allocate.
  EventId schedule_guarded(net::NodeId id, net::Incarnation inc, double when,
                           std::function<void()> fn);
  /// Pop `sh`'s next event and run it unless its guard (schedule_guarded)
  /// names an incarnation that has ended.
  void run_next(Shard& sh);

  void send_from(net::NodeId from, const net::Stub& to, net::Message message);
  double transfer_delay(const Node& from, const MachineSpec& to_spec,
                        std::size_t bytes, Rng& rng);

  /// Transmit queued frames of (from, to) subject to the flush window and,
  /// with serialize_links, one-frame-in-flight occupancy.
  void pump_link(net::NodeId from, net::NodeId to);
  /// Put one frame on the wire: same-shard frames run the classic
  /// liveness/incarnation checks and park for local delivery; cross-shard
  /// frames wait in the sender's outbox. `ls` is non-null when the frame
  /// came off a link queue (occupancy accounting, FIFO arrival).
  void transmit_wire(net::NodeId from, const net::Stub& to,
                     net::Message message, LinkState* ls);
  /// FIFO rule for a frame that came off link `ls`: it arrives no earlier
  /// than the frame the link sent before it (each frame draws its own
  /// jitter, so a flush burst would otherwise arrive shuffled). Equal
  /// arrivals keep send order, as the event queue and the outbox merge
  /// both break ties by insertion. A frame that bypassed the link queues
  /// (`ls` null) keeps `arrival` as drawn.
  static double fifo_arrival(LinkState* ls, double arrival);
  /// With serialize_links, hold a link-queue frame's link busy for its
  /// sender-side wire occupancy, then pump the link again. A no-op for a
  /// frame that bypassed the link queues (`ls` null).
  void occupy_link(net::NodeId from, net::NodeId to_node,
                   const MachineSpec& to_spec, std::size_t bytes,
                   LinkState* ls);
  /// Deliver a frame to (dest, inc): the classic delivery path (lost-in-
  /// flight check, then deliver_body). Runs on the destination's shard.
  void deliver_wire(net::NodeId dest, net::Incarnation inc, net::Message msg);
  /// The shared delivery body: counters, then actor dispatch.
  void deliver_body(Node& dest, Shard& sh, net::Message msg);
  /// Cross-shard arrival: re-resolve liveness/incarnation on the destination
  /// shard, then deliver.
  void deliver_cross(Node& dest, const net::Stub& to, net::Message msg);

  // --- conservative round loop (shards >= 2) ---
  void run_rounds(double until);
  /// Write each Shard::round_horizon for a round starting at t_min from the
  /// per-shard wire-cost minima. Every horizon is additionally capped at
  /// `limit` (the next global event / the run cap, whichever is earlier).
  void set_round_horizons(double t_min, double limit);
  void run_round();
  void merge_outboxes();
  /// Park `message` in shard `shard` and schedule its delivery at `arrival`
  /// on that shard's queue.
  void park(std::uint32_t shard, double arrival, const net::Stub& to,
            net::Message message, bool cross);
  /// Release parked slot `slot` of shard `shard` and deliver its frame.
  /// Runs on that shard.
  void deliver_parked(std::uint32_t shard, std::uint32_t slot);
  RoundWorkerPool& round_crew();
  /// Fold per-shard counters into stats_ (no-op with shards == 1).
  void aggregate_stats() const;

  SimConfig config_;
  Rng rng_;
  double now_ = 0.0;
  std::atomic<bool> stopped_{false};
  net::NodeId next_node_ = 1;
  /// The node table, indexed by id - 1: ids are allocated densely from 1
  /// and nodes are never erased. Each node is its own allocation, so its
  /// address survives the table growing. DESIGN.md §12 says why this is not
  /// a std::deque<Node>.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Harness events (shards >= 2 only; classic mode keeps them in shard 0's
  /// queue so event-id tie-breaks stay bit-identical to the old scheduler).
  EventQueue global_queue_;
  std::unique_ptr<RoundWorkerPool> crew_;
  /// Cursor heap for the k-way outbox merge, keyed (arrival, shard). Reused
  /// across rounds; capacity is bounded by the shard count.
  struct MergeCursor {
    double arrival = 0.0;
    std::uint32_t shard = 0;
    std::size_t index = 0;
  };
  std::vector<MergeCursor> merge_heap_;
  std::uint64_t rounds_ = 0;
  /// Per-shard min over owned nodes of MachineSpec::min_wire_cost() — the
  /// round-horizon input. add_node alone maintains it: a new node can only
  /// lower a min, so `min(cached, spec)` is exact, and nothing changes a
  /// node's latency or per-message overhead after it is added.
  std::vector<double> shard_wire_min_;
  mutable NetStats stats_;  ///< classic: the live counters; sharded: aggregate
  net::CommStats comm_stats_;
};

}  // namespace jacepp::sim
