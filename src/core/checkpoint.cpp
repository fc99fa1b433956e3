#include "core/checkpoint.hpp"

#include "serial/buffer_pool.hpp"
#include "serial/checksum.hpp"
#include "support/assert.hpp"

namespace jacepp::core::checkpoint {

serial::Bytes encode_full_frame(std::uint64_t baseline_id,
                                std::uint32_t chunk_size,
                                const serial::Bytes& state) {
  JACEPP_ASSERT(chunk_size > 0);
  const std::uint32_t state_crc = serial::crc32(state);
  const std::size_t size =
      1 + serial::varint_size(baseline_id) + serial::varint_size(0) +
      serial::varint_size(chunk_size) + serial::varint_size(state.size()) + 4 +
      serial::varint_size(state.size()) + state.size() + 4;
  serial::Bytes buffer = serial::BufferPool::instance().acquire();
  buffer.reserve(size);
  serial::Writer w(std::move(buffer));
  w.u8(static_cast<std::uint8_t>(FrameKind::Full));
  w.varint(baseline_id);
  w.varint(0);  // delta_seq
  w.varint(chunk_size);
  w.varint(state.size());
  w.u32(state_crc);
  w.bytes(state);
  // The frame CRC covers prologue || state. It is combined from the
  // prologue's CRC and `state_crc`, so a save makes one CRC pass over the
  // state, not two.
  const std::size_t prologue = w.size() - state.size();
  w.u32(serial::crc32_combine(serial::crc32(w.data().data(), prologue),
                              state_crc, state.size()));
  JACEPP_ASSERT(w.size() == size);
  return w.take();
}

std::optional<DecodedFrame> decode_frame(const serial::Bytes& frame) {
  if (frame.size() < 4) return std::nullopt;
  const std::size_t body = frame.size() - 4;
  serial::Reader tail(frame.data() + body, 4);
  const std::uint32_t frame_crc = tail.u32();

  // The prologue is parsed before the frame CRC is checked, but every field
  // is bounds-checked and nothing is allocated or returned until it is.
  serial::Reader r(frame.data(), body);
  DecodedFrame f;
  const std::uint8_t kind = r.u8();
  f.baseline_id = r.varint();
  const std::uint64_t delta_seq = r.varint();
  const std::uint64_t chunk_size = r.varint();
  const std::uint64_t state_size = r.varint();
  f.state_checksum = r.u32();
  const std::uint64_t len = r.varint();
  if (!r.ok() || kind != static_cast<std::uint8_t>(FrameKind::Full) ||
      delta_seq != 0 || chunk_size == 0 || chunk_size > 0xFFFFFFFFu ||
      len != r.remaining() || len != state_size) {
    return std::nullopt;
  }
  // One pass over the state yields its CRC; the frame CRC over
  // prologue || state is combined from it, which is exact, so this accepts
  // precisely the frames a full-body CRC check would.
  const std::size_t prologue = body - static_cast<std::size_t>(len);
  const std::uint8_t* state = frame.data() + prologue;
  const std::uint32_t state_crc =
      serial::crc32(state, static_cast<std::size_t>(len));
  if (serial::crc32_combine(serial::crc32(frame.data(), prologue), state_crc,
                            len) != frame_crc ||
      state_crc != f.state_checksum) {
    return std::nullopt;
  }
  f.full_state = serial::BufferPool::instance().acquire();
  f.full_state.assign(state, state + len);
  return f;
}

DeltaEncoder::Emitted DeltaEncoder::emit(
    std::size_t /*holder*/, const serial::Bytes& state,
    const std::optional<DirtyRanges>& /*hints*/) {
  return Emitted{encode_full_frame(next_baseline_id_++, kFrameChunkSize, state),
                 FrameKind::Full};
}

}  // namespace jacepp::core::checkpoint
