// Incremental delta checkpointing (the jaceSave fast path).
//
// The paper's §5.4 scheme ships the task's ENTIRE serialized state to a
// backup-peer every k iterations. Between checkpoints an asynchronous task
// usually rewrites only part of that state (the iterate moves, a boundary
// line arrives), so most of those bytes are identical to what the holder
// already has. This module replaces the full-state blob with framed
// incremental checkpoints at fixed chunk granularity:
//
//   * The serialized state is cut into `chunk_size`-byte chunks.
//   * A **full baseline** frame carries every byte and opens a new chain
//     (fresh `baseline_id`).
//   * A **delta** frame carries only the chunks whose contents changed since
//     the previous frame sent to THAT holder (chunk index + payload,
//     varint-coded), with `delta_seq` ordering it inside the chain.
//   * Every frame ends in a CRC-32 of the frame bytes, and carries a CRC-32
//     of the full reconstructed state so a holder can prove a chain intact
//     before serving it to a replacement daemon.
//
// The sender (DeltaEncoder) keeps one copy of the previous serialized state,
// compares each new state against it chunk by chunk, and keeps a per-holder
// dirty bitset, so the paper's round-robin placement still works: each
// holder's chain only needs the chunks changed since that holder's own last
// frame. A chain is rebased onto a fresh baseline after `rebase_every`
// deltas, when the chain's bytes exceed the byte budget, or when the holder
// NACKs (restarted, lost its chain, detected a gap). The holder (BackupStore,
// core/backup.hpp) keeps one state per chain and writes each delta into it
// on arrival.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "serial/serial.hpp"

namespace jacepp::core::checkpoint {

/// Per-application checkpointing policy, carried in the AppDescriptor so
/// every daemon runs the same scheme. See DESIGN.md "Checkpoint wire format &
/// rebase policy" for the knobs' semantics.
struct CheckpointPolicy {
  std::uint32_t chunk_size = 4096;  ///< dirty-tracking granularity, bytes
  std::uint32_t rebase_every = 16;  ///< full baseline after this many deltas
  /// Rebase when a chain's delta bytes exceed this; 0 = auto (one full
  /// state). Like rebase_every, it bounds how long a chain runs before a
  /// fresh baseline re-anchors the holder.
  std::uint64_t chain_byte_budget = 0;

  // Adaptive save interval: widen/narrow k so the modelled checkpoint cost
  // stays near `target_overhead` of the measured iteration cost. Off by
  // default: the paper's fixed `checkpoint_every` then applies unchanged.
  bool adaptive_interval = false;
  std::uint32_t min_interval = 1;   ///< lower bound for the adaptive k
  std::uint32_t max_interval = 64;  ///< upper bound for the adaptive k
  double target_overhead = 0.05;    ///< checkpoint cost / iteration cost
  double net_bandwidth = 100e6;     ///< modelled transfer rate, bytes/s
  double net_latency = 1e-3;        ///< modelled per-save fixed cost, s

  JACEPP_WIRE_FIELDS(chunk_size, rebase_every, chain_byte_budget,
                     adaptive_interval, min_interval, max_interval,
                     target_overhead, net_bandwidth, net_latency)
};

/// Byte intervals of a state that may have changed since the previous emit,
/// passed to DeltaEncoder::emit as a HINT: the encoder then compares only the
/// hinted chunks against its retained copy, so a false positive costs a
/// memcmp while a false negative corrupts the chain (caught by the state
/// checksum, healed by a forced rebase). The Daemon passes no hints; only the
/// codec tests and bench_checkpoint do.
struct DirtyRanges {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  ///< [lo, hi)

  void mark(std::size_t lo, std::size_t hi) {
    if (lo < hi) ranges.emplace_back(lo, hi);
  }
  void clear() { ranges.clear(); }
  [[nodiscard]] bool empty() const { return ranges.empty(); }
};

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

enum class FrameKind : std::uint8_t { Full = 0, Delta = 1 };

/// A decoded checkpoint frame. For Full frames `full_state` holds the state
/// bytes; for Delta frames `chunks` holds (chunk index, payload) pairs with
/// strictly increasing indices.
struct DecodedFrame {
  FrameKind kind = FrameKind::Full;
  std::uint64_t baseline_id = 0;
  std::uint64_t delta_seq = 0;  ///< 0 for baselines, 1..N inside a chain
  std::uint32_t chunk_size = 0;
  std::uint64_t total_size = 0;     ///< full state byte size
  std::uint32_t state_checksum = 0;  ///< CRC-32 of the reconstructed state
  serial::Bytes full_state;
  std::vector<std::pair<std::uint32_t, serial::Bytes>> chunks;
};

/// Encode a full-baseline frame.
serial::Bytes encode_full_frame(std::uint64_t baseline_id,
                                std::uint32_t chunk_size,
                                const serial::Bytes& state);

/// Encode a delta frame carrying `chunk_indices` (sorted, unique) of `state`.
serial::Bytes encode_delta_frame(std::uint64_t baseline_id,
                                 std::uint64_t delta_seq,
                                 std::uint32_t chunk_size,
                                 const serial::Bytes& state,
                                 const std::vector<std::uint32_t>& chunk_indices);

/// Decode and validate a frame (frame CRC, bounds, canonical chunk list).
/// nullopt on any corruption or truncation.
std::optional<DecodedFrame> decode_frame(const serial::Bytes& frame);

// ---------------------------------------------------------------------------
// Sender side
// ---------------------------------------------------------------------------

/// Per-holder chain state plus the shared previous-state copy; one instance
/// per computing task, living in the Daemon for the task's lifetime.
class DeltaEncoder {
 public:
  struct Emitted {
    serial::Bytes frame;
    FrameKind kind = FrameKind::Full;
    std::uint64_t baseline_id = 0;
    std::uint64_t delta_seq = 0;
    std::size_t chunks_carried = 0;
  };

  DeltaEncoder(CheckpointPolicy policy, std::size_t holder_count);

  /// Emit the next frame for `holder` given the task's current serialized
  /// state and optional dirty hints since the previous emit (nullopt, the
  /// Daemon's case, = compare every chunk). Called once per checkpoint;
  /// updates every holder's dirty bitset and advances `holder`'s chain.
  Emitted emit(std::size_t holder, const serial::Bytes& state,
               const std::optional<DirtyRanges>& hints);

  /// The holder could not extend its chain (restart, gap, corrupt frame):
  /// its next frame must be a full baseline.
  void mark_needs_full(std::size_t holder);

  [[nodiscard]] std::size_t holder_count() const { return holders_.size(); }
  [[nodiscard]] std::uint64_t fulls_emitted() const { return fulls_emitted_; }
  [[nodiscard]] std::uint64_t deltas_emitted() const { return deltas_emitted_; }
  [[nodiscard]] std::uint64_t full_bytes() const { return full_bytes_; }
  [[nodiscard]] std::uint64_t delta_bytes() const { return delta_bytes_; }

 private:
  struct Holder {
    std::uint64_t baseline_id = 0;
    std::uint64_t delta_seq = 0;
    std::uint64_t chain_bytes = 0;
    bool needs_full = true;
    std::vector<std::uint64_t> dirty;  ///< bitset over chunks
  };

  [[nodiscard]] std::size_t chunk_count(std::size_t state_size) const;
  void refresh_changed_chunks(const serial::Bytes& state,
                              const std::optional<DirtyRanges>& hints);

  CheckpointPolicy policy_;
  serial::Bytes prev_;
  std::uint64_t next_baseline_id_ = 1;
  std::vector<Holder> holders_;
  std::vector<std::uint32_t> scratch_chunks_;

  std::uint64_t fulls_emitted_ = 0;
  std::uint64_t deltas_emitted_ = 0;
  std::uint64_t full_bytes_ = 0;
  std::uint64_t delta_bytes_ = 0;
};

}  // namespace jacepp::core::checkpoint
