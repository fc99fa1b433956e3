// Staleness-aware outbound link: latest-wins coalescing, control batching,
// bounded queues with backpressure (the "comm substrate" between actors and
// the transports).
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
// A Link is a passive per-destination queue; the owning transport decides
// when to pump it (flush windows, wire serialization). Both transports share
// the exact same Link code, so the coalescing/batching semantics tested
// against the deterministic simulator are the semantics the threaded runtime
// runs.
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
                                    ///< flushes (0 = transports bypass links)
  std::size_t max_queue_bytes = 4u << 20;  ///< per-link byte budget
  std::size_t max_queue_messages = 4096;   ///< per-link count budget
  std::size_t max_batch_messages = 32;     ///< control sub-messages per Batch
  std::size_t max_batch_bytes = 16 * 1024; ///< body bytes per Batch
};

/// Link-layer counters, shared by every Link of one transport. Relaxed
/// atomics: rt workers update them concurrently; exact cross-counter
/// consistency is not needed (they are diagnostics, read after quiescence).
struct CommStatsSnapshot {
  std::uint64_t enqueued = 0;          ///< messages handed to links
  std::uint64_t coalesced = 0;         ///< superseded Data replaced in place
  std::uint64_t dropped_data = 0;      ///< Data dropped by backpressure
  std::uint64_t batches = 0;           ///< Batch envelopes formed
  std::uint64_t batched_messages = 0;  ///< control messages packed into them
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
  std::atomic<std::uint64_t> batched_messages{0};
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
    s.batched_messages = batched_messages.load(std::memory_order_relaxed);
    s.wire_frames = wire_frames.load(std::memory_order_relaxed);
    s.wire_bytes = wire_bytes.load(std::memory_order_relaxed);
    s.queue_high_water_bytes =
        queue_high_water_bytes.load(std::memory_order_relaxed);
    return s;
  }
};

/// Envelope type for a packed batch of control messages. High value, far from
/// the protocol catalogue; transports unpack it transparently on receive.
inline constexpr MessageType kBatchMessageType = 0xB47C0001u;

/// Pack >= 2 messages into one Batch envelope:
///   varint sub_count | u32 crc32(subframes) | bytes(subframes)
/// where subframes = repeated { varint type | bytes body }.
[[nodiscard]] Message pack_batch(const std::vector<Message>& parts);

/// Unpack a Batch envelope; sub-messages inherit the envelope's `from`.
/// Returns false (and leaves `out` empty) on CRC mismatch or malformed
/// framing — the receiver treats the frame as lost.
[[nodiscard]] bool unpack_batch(const Message& envelope,
                                std::vector<Message>& out);

/// One frame ready for the wire: either a single message or a Batch envelope.
struct WireFrame {
  Message message;
  Stub to;
};

/// Per-destination outbound queue. Single-owner: the sim world or one rt
/// worker thread; only CommStats is shared. The transport enqueues every
/// outgoing message and pops WireFrames whenever its flush policy says so.
class Link {
 public:
  Link(const LinkConfig* config, CommStats* stats);

  /// Queue a message. Data with a key already queued is replaced in place
  /// (latest wins, position preserved); then the byte/count budgets are
  /// enforced by dropping the oldest queued Data (never Control — an
  /// all-control queue may exceed its budget).
  void enqueue(Message message, const Stub& to);

  /// Next frame for the wire, or nullopt when the queue is empty. A Data
  /// message always travels alone (its Payload stays zero-copy end to end);
  /// consecutive Control messages to the same stub are packed into one Batch
  /// envelope up to the batch caps.
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
