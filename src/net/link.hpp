// Staleness-aware outbound link: latest-wins coalescing and bounded queues
// with backpressure (the simulator's "comm substrate" between actors and
// the modelled wire).
//
// The paper's asynchronous iteration model (§4, §5.3) tolerates message loss
// and staleness for *dependency data* — a receiver overwrites whatever halo
// version it holds with the newest one and never looks back. So a queued data
// message that has been superseded by a newer one for the same (app, task,
// data-tag) stream is pure waste: replacing it in place is indistinguishable
// from ordinary message loss, which the algorithm already survives. Protocol
// *control* traffic (registration, reservation, convergence 1/0 transitions,
// Backup frames, heartbeats) has no such redundancy and is
// never coalesced or dropped.
//
// A Link is a passive per-destination queue; the simulator (sim::SimWorld)
// decides when to pump it (flush windows, wire serialization). Every queued
// message leaves as its own frame, in queue order, with the sender stub its
// Env stamped on it, as the paper's one RMI call per exchange. The link layer
// belongs to the simulator alone: the threaded runtime hands every send
// straight to the destination's mailbox.
//
// Layering: net/ cannot see core/'s message catalogue, so the Data-vs-Control
// split is injected as a plain function pointer (LinkConfig::classifier);
// core/messages.hpp provides the canonical one. A null classifier makes
// everything Control — safe, nothing is ever coalesced or dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "net/stub.hpp"

namespace jacepp::net {

/// Delivery classes (see file header): Data may be coalesced (latest wins)
/// and dropped under backpressure; Control is never coalesced or dropped.
enum class DeliveryClass : std::uint8_t { Control = 0, Data = 1 };

/// Result of classifying one message. For Data, (key_hi, key_lo) identifies
/// the update stream — messages with equal keys supersede each other; the
/// canonical classifier packs (app, from_task) / (to_task, tag).
struct Classification {
  DeliveryClass cls = DeliveryClass::Control;
  std::uint64_t key_hi = 0;
  std::uint64_t key_lo = 0;
};

/// Injected by the protocol layer (core/messages.hpp: classify_for_link).
/// Plain function pointer so net/ needs no dependency on the catalogue.
using Classifier = Classification (*)(const Message&);

struct LinkConfig {
  Classifier classifier = nullptr;  ///< null => everything is Control
  bool coalesce = true;             ///< latest-wins replacement of queued Data
  double flush_window = 0.0;        ///< seconds a link accumulates between
                                    ///< flushes (0 = sends bypass links)
};

/// Link-layer counters, shared by every Link of one SimWorld. Relaxed
/// atomics: the round crew's lanes update them concurrently; exact
/// cross-counter consistency is not needed (they are diagnostics, read after
/// quiescence).
struct CommStatsSnapshot {
  std::uint64_t enqueued = 0;          ///< messages handed to links
  std::uint64_t coalesced = 0;         ///< superseded Data replaced in place
  std::uint64_t dropped_data = 0;      ///< Data dropped by backpressure
  /// Batch envelopes formed: always 0, since no link packs messages.
  /// Kept because perfbench reads it (ROADMAP item 2).
  std::uint64_t batches = 0;
  std::uint64_t wire_frames = 0;       ///< frames handed to the wire
  std::uint64_t wire_bytes = 0;        ///< their wire_size() total
  std::uint64_t queue_high_water_bytes = 0;  ///< max per-link queued bytes
};

class CommStats {
 public:
  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> coalesced{0};
  std::atomic<std::uint64_t> dropped_data{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> wire_frames{0};
  std::atomic<std::uint64_t> wire_bytes{0};
  std::atomic<std::uint64_t> queue_high_water_bytes{0};

  void note_queue_bytes(std::uint64_t bytes) {
    std::uint64_t seen = queue_high_water_bytes.load(std::memory_order_relaxed);
    while (bytes > seen &&
           !queue_high_water_bytes.compare_exchange_weak(
               seen, bytes, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] CommStatsSnapshot snapshot() const {
    CommStatsSnapshot s;
    s.enqueued = enqueued.load(std::memory_order_relaxed);
    s.coalesced = coalesced.load(std::memory_order_relaxed);
    s.dropped_data = dropped_data.load(std::memory_order_relaxed);
    s.batches = batches.load(std::memory_order_relaxed);
    s.wire_frames = wire_frames.load(std::memory_order_relaxed);
    s.wire_bytes = wire_bytes.load(std::memory_order_relaxed);
    s.queue_high_water_bytes =
        queue_high_water_bytes.load(std::memory_order_relaxed);
    return s;
  }
};

/// Type of the old Batch envelope, which packed several control messages
/// into one frame. No link builds one and no transport unpacks one: a
/// message of this type is delivered as it is, and an actor's rmi::Table
/// drops it as Unhandled like any unknown type.
inline constexpr MessageType kBatchMessageType = 0xB47C0001u;

/// Decode a Batch envelope body:
///   varint sub_count | u32 crc32(subframes) | bytes(subframes)
/// where subframes = repeated { varint type | bytes body }. Sub-messages
/// inherit the envelope's `from`. Returns false (and leaves `out` empty) on
/// CRC mismatch or malformed framing. Nothing in the library calls it; the
/// traced perfbench build wraps it (ROADMAP item 2).
[[nodiscard]] bool unpack_batch(const Message& envelope,
                                std::vector<Message>& out);

/// One message ready for the wire, and the stub it is addressed to.
struct WireFrame {
  Message message;
  Stub to;
};

/// Per-destination outbound queue of one sending node; only CommStats is
/// shared. The simulator enqueues every outgoing message and pops
/// WireFrames whenever its flush policy says so.
class Link {
 public:
  Link(const LinkConfig* config, CommStats* stats);

  /// Per-link budgets, enforced on every enqueue (enforce_budget). Over
  /// either one the link drops its oldest queued Data; Control is never
  /// dropped, so an all-control queue may exceed them.
  static constexpr std::size_t kMaxQueueBytes = 4u << 20;
  static constexpr std::size_t kMaxQueueMessages = 4096;

  /// Queue a message. Data with a key already queued is replaced in place
  /// (latest wins, position preserved); then the byte/count budgets are
  /// enforced by dropping the oldest queued Data.
  void enqueue(Message message, const Stub& to);

  /// The front queued message as its own frame, or nullopt when the queue
  /// is empty. Its Payload goes to the wire untouched (zero-copy end to end).
  std::optional<WireFrame> next_wire_frame();

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t queued_messages() const { return live_count_; }
  [[nodiscard]] std::size_t queued_bytes() const { return live_bytes_; }

 private:
  struct Key {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    bool operator==(const Key& other) const {
      return hi == other.hi && lo == other.lo;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // splitmix-style mix; both halves feed the hash.
      std::uint64_t x = k.hi * 0x9E3779B97F4A7C15ull ^ k.lo;
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ull;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };
  struct Pending {
    Message msg;
    Stub to;
    Classification cls;
    std::size_t bytes = 0;  ///< wire_size() cached before msg may be moved out
    bool dead = false;      ///< tombstone left by a backpressure drop
  };

  bool drop_oldest_data();
  void enforce_budget();
  void compact();
  void pop_front_entry();

  const LinkConfig* config_;
  CommStats* stats_;
  std::deque<Pending> queue_;
  // Live queued Data entries by stream key. Deque references are stable
  // under push_back/pop_front, so Pending* stays valid until compact().
  std::unordered_map<Key, Pending*, KeyHash> index_;
  std::size_t live_count_ = 0;
  std::size_t live_bytes_ = 0;
  std::size_t dead_count_ = 0;
};

}  // namespace jacepp::net
