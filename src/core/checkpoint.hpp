// Checkpoint frames (the jaceSave wire format, paper §5.4).
//
// Every save ships the task's whole serialized state, as in the paper, to
// one backup peer chosen round-robin. The state travels in one frame:
//
//   kind u8 (0) | baseline_id varint | delta_seq varint (0) |
//   chunk_size varint | state size varint | state CRC-32 u32 |
//   state (varint length + bytes) | frame CRC-32 u32
//
// The frame CRC covers everything before it, so a holder refuses a frame
// that was damaged or cut short in transit. The state CRC stays with the
// held state, so the holder can prove that state intact before it serves it
// to a replacement daemon (core/backup.hpp).
//
// Three prologue fields carry fixed values. The kind byte is 0 (any other
// kind is refused), `delta_seq` is 0 (any other value is refused) and the
// encoder writes kFrameChunkSize as `chunk_size` (any nonzero value that
// fits 32 bits is accepted). `baseline_id` numbers one encoder's frames from
// 1 up; a holder does not read it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "serial/serial.hpp"

namespace jacepp::core::checkpoint {

/// The `chunk_size` an encoder writes into every frame's prologue.
inline constexpr std::uint32_t kFrameChunkSize = 4096;

/// The type of DeltaEncoder::emit's `hints` parameter, which emit does not
/// read: every save carries the whole state.
struct DirtyRanges {};

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// The frame's kind byte. Only whole-state frames exist.
enum class FrameKind : std::uint8_t { Full = 0 };

/// A decoded checkpoint frame.
struct DecodedFrame {
  std::uint64_t baseline_id = 0;
  std::uint32_t state_checksum = 0;  ///< CRC-32 of `full_state`
  serial::Bytes full_state;
};

/// Encode a whole-state frame numbered `baseline_id`, writing `chunk_size`
/// (nonzero) into its prologue.
serial::Bytes encode_full_frame(std::uint64_t baseline_id,
                                std::uint32_t chunk_size,
                                const serial::Bytes& state);

/// Decode and validate a frame: the frame CRC, the prologue's fixed fields,
/// the state's length and its CRC. nullopt on any corruption or truncation.
std::optional<DecodedFrame> decode_frame(const serial::Bytes& frame);

// ---------------------------------------------------------------------------
// Sender side
// ---------------------------------------------------------------------------

/// One task's save path: encodes each save as a whole-state frame and
/// numbers the frames. One instance per task assignment, in the Daemon.
class DeltaEncoder {
 public:
  struct Emitted {
    serial::Bytes frame;
    FrameKind kind = FrameKind::Full;
  };

  /// The frame for one save of `state`. `holder` (the backup peer's index)
  /// and `hints` are not read; the Daemon passes std::nullopt.
  Emitted emit(std::size_t holder, const serial::Bytes& state,
               const std::optional<DirtyRanges>& hints);

 private:
  std::uint64_t next_baseline_id_ = 1;
};

}  // namespace jacepp::core::checkpoint
