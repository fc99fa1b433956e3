#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstring>

#include "serial/checksum.hpp"
#include "support/assert.hpp"

namespace jacepp::core::checkpoint {

namespace {

/// Byte length of chunk `index` of a `state_size`-byte state (the last chunk
/// may be short).
std::size_t chunk_length(std::uint32_t index, std::uint32_t chunk_size,
                         std::size_t state_size) {
  const std::size_t lo = static_cast<std::size_t>(index) * chunk_size;
  JACEPP_ASSERT(lo < state_size);
  return std::min<std::size_t>(state_size - lo, chunk_size);
}

/// Encoded size of the shared frame prologue (write_header).
std::size_t header_size(std::uint64_t baseline_id, std::uint64_t delta_seq,
                        std::uint32_t chunk_size, std::size_t state_size) {
  return 1 + serial::varint_size(baseline_id) + serial::varint_size(delta_seq) +
         serial::varint_size(chunk_size) + serial::varint_size(state_size) + 4;
}

/// Exact encoded size of a delta frame carrying `chunk_indices`.
std::size_t delta_frame_size(std::uint64_t baseline_id, std::uint64_t delta_seq,
                             std::uint32_t chunk_size, std::size_t state_size,
                             const std::vector<std::uint32_t>& chunk_indices) {
  std::size_t size = header_size(baseline_id, delta_seq, chunk_size,
                                 state_size) +
                     serial::varint_size(chunk_indices.size()) + 4;
  for (const std::uint32_t index : chunk_indices) {
    const std::size_t len = chunk_length(index, chunk_size, state_size);
    size += serial::varint_size(index) + serial::varint_size(len) + len;
  }
  return size;
}

/// A Writer whose buffer already has room for exactly `size` bytes.
serial::Writer reserved_writer(std::size_t size) {
  serial::Bytes buffer;
  buffer.reserve(size);
  return serial::Writer(std::move(buffer));
}

/// Shared frame prologue: everything up to (not including) the payload.
void write_header(serial::Writer& w, FrameKind kind, std::uint64_t baseline_id,
                  std::uint64_t delta_seq, std::uint32_t chunk_size,
                  std::size_t state_size, std::uint32_t state_crc) {
  w.u8(static_cast<std::uint8_t>(kind));
  w.varint(baseline_id);
  w.varint(delta_seq);
  w.varint(chunk_size);
  w.varint(state_size);
  w.u32(state_crc);
}

/// Full frame given the state's CRC. The frame CRC covers prologue || state;
/// it is combined from the prologue's CRC and `state_crc`, so it costs no
/// second pass over the state.
serial::Bytes full_frame(std::uint64_t baseline_id, std::uint32_t chunk_size,
                         const serial::Bytes& state, std::uint32_t state_crc) {
  JACEPP_ASSERT(chunk_size > 0);
  const std::size_t size = header_size(baseline_id, 0, chunk_size,
                                       state.size()) +
                           serial::varint_size(state.size()) + state.size() + 4;
  serial::Writer w = reserved_writer(size);
  write_header(w, FrameKind::Full, baseline_id, /*delta_seq=*/0, chunk_size,
               state.size(), state_crc);
  w.bytes(state);
  const std::size_t prologue = w.size() - state.size();
  w.u32(serial::crc32_combine(serial::crc32(w.data().data(), prologue),
                              state_crc, state.size()));
  JACEPP_ASSERT(w.size() == size);
  return w.take();
}

/// Delta frame given the state's CRC and the frame's delta_frame_size.
serial::Bytes delta_frame(std::uint64_t baseline_id, std::uint64_t delta_seq,
                          std::uint32_t chunk_size, const serial::Bytes& state,
                          std::uint32_t state_crc,
                          const std::vector<std::uint32_t>& chunk_indices,
                          std::size_t size) {
  JACEPP_ASSERT(chunk_size > 0 && delta_seq > 0);
  serial::Writer w = reserved_writer(size);
  write_header(w, FrameKind::Delta, baseline_id, delta_seq, chunk_size,
               state.size(), state_crc);
  w.varint(chunk_indices.size());
  for (const std::uint32_t index : chunk_indices) {
    w.varint(index);
    w.bytes(state.data() + static_cast<std::size_t>(index) * chunk_size,
            chunk_length(index, chunk_size, state.size()));
  }
  w.u32(serial::crc32(w.data()));
  JACEPP_ASSERT(w.size() == size);
  return w.take();
}

}  // namespace

serial::Bytes encode_full_frame(std::uint64_t baseline_id,
                                std::uint32_t chunk_size,
                                const serial::Bytes& state) {
  return full_frame(baseline_id, chunk_size, state, serial::crc32(state));
}

serial::Bytes encode_delta_frame(
    std::uint64_t baseline_id, std::uint64_t delta_seq,
    std::uint32_t chunk_size, const serial::Bytes& state,
    const std::vector<std::uint32_t>& chunk_indices) {
  return delta_frame(baseline_id, delta_seq, chunk_size, state,
                     serial::crc32(state), chunk_indices,
                     delta_frame_size(baseline_id, delta_seq, chunk_size,
                                      state.size(), chunk_indices));
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
  if (kind > static_cast<std::uint8_t>(FrameKind::Delta)) return std::nullopt;
  f.kind = static_cast<FrameKind>(kind);
  f.baseline_id = r.varint();
  f.delta_seq = r.varint();
  const std::uint64_t chunk_size = r.varint();
  f.total_size = r.varint();
  f.state_checksum = r.u32();
  if (!r.ok() || chunk_size == 0 || chunk_size > 0xFFFFFFFFu) {
    return std::nullopt;
  }
  f.chunk_size = static_cast<std::uint32_t>(chunk_size);

  if (f.kind == FrameKind::Full) {
    if (f.delta_seq != 0) return std::nullopt;
    const std::uint64_t len = r.varint();
    if (!r.ok() || len != r.remaining() || len != f.total_size) {
      return std::nullopt;
    }
    // One pass over the payload yields the state CRC; the frame CRC over
    // prologue || payload is combined from it, which is exact, so this
    // accepts precisely the frames a full-body CRC check would.
    const std::size_t prologue = body - static_cast<std::size_t>(len);
    const std::uint8_t* payload = frame.data() + prologue;
    const std::uint32_t state_crc =
        serial::crc32(payload, static_cast<std::size_t>(len));
    if (serial::crc32_combine(serial::crc32(frame.data(), prologue), state_crc,
                              len) != frame_crc ||
        state_crc != f.state_checksum) {
      return std::nullopt;
    }
    f.full_state.assign(payload, payload + len);
    return f;
  }

  // Delta: the frame CRC comes first, before any chunk length is trusted.
  if (serial::crc32(frame.data(), body) != frame_crc) return std::nullopt;
  if (f.delta_seq == 0) return std::nullopt;
  const std::uint64_t chunk_total =
      (f.total_size + f.chunk_size - 1) / f.chunk_size;
  const std::uint64_t count = r.varint();
  if (!r.ok() || count > chunk_total) return std::nullopt;
  f.chunks.reserve(static_cast<std::size_t>(count));
  std::uint64_t prev_index = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t index = r.varint();
    if (!r.ok() || index >= chunk_total) return std::nullopt;
    if (i > 0 && index <= prev_index) return std::nullopt;  // canonical order
    prev_index = index;
    serial::Bytes payload = r.bytes();
    const std::uint64_t lo = index * f.chunk_size;
    const std::uint64_t expected =
        std::min<std::uint64_t>(f.total_size - lo, f.chunk_size);
    if (!r.ok() || payload.size() != expected) return std::nullopt;
    f.chunks.emplace_back(static_cast<std::uint32_t>(index),
                          std::move(payload));
  }
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return f;
}

// ---------------------------------------------------------------------------
// DeltaEncoder
// ---------------------------------------------------------------------------

DeltaEncoder::DeltaEncoder(CheckpointPolicy policy, std::size_t holder_count)
    : policy_(std::move(policy)), holders_(holder_count) {
  JACEPP_CHECK(policy_.chunk_size > 0, "DeltaEncoder: chunk_size must be > 0");
}

std::size_t DeltaEncoder::chunk_count(std::size_t state_size) const {
  return (state_size + policy_.chunk_size - 1) / policy_.chunk_size;
}

void DeltaEncoder::refresh_changed_chunks(
    const serial::Bytes& state, const std::optional<DirtyRanges>& hints) {
  const std::size_t chunks = chunk_count(state.size());
  const std::size_t words = (chunks + 63) / 64;

  if (prev_.size() != state.size()) {
    // Size change (or first checkpoint): chunk alignment shifted, no delta
    // can be expressed — every holder restarts its chain from a baseline.
    for (auto& h : holders_) {
      h.needs_full = true;
      h.dirty.assign(words, 0);
    }
    prev_ = state;
    return;
  }

  // Candidate chunks from the hints (or all chunks), verified by comparing
  // against the retained previous state so clean hinted chunks drop out.
  scratch_chunks_.clear();
  auto add_candidate_range = [&](std::size_t lo, std::size_t hi) {
    if (lo >= state.size()) return;
    hi = std::min(hi, state.size());
    const std::size_t first = lo / policy_.chunk_size;
    const std::size_t last = (hi - 1) / policy_.chunk_size;
    for (std::size_t c = first; c <= last; ++c) {
      scratch_chunks_.push_back(static_cast<std::uint32_t>(c));
    }
  };
  if (!hints.has_value()) {
    add_candidate_range(0, state.size());
  } else {
    for (const auto& [lo, hi] : hints->ranges) add_candidate_range(lo, hi);
    std::sort(scratch_chunks_.begin(), scratch_chunks_.end());
    scratch_chunks_.erase(
        std::unique(scratch_chunks_.begin(), scratch_chunks_.end()),
        scratch_chunks_.end());
  }

  for (const std::uint32_t c : scratch_chunks_) {
    const std::size_t lo = static_cast<std::size_t>(c) * policy_.chunk_size;
    const std::size_t len = std::min<std::size_t>(state.size() - lo,
                                                  policy_.chunk_size);
    if (std::memcmp(prev_.data() + lo, state.data() + lo, len) == 0) continue;
    std::memcpy(prev_.data() + lo, state.data() + lo, len);
    for (auto& h : holders_) {
      if (h.dirty.size() != words) h.dirty.assign(words, 0);
      h.dirty[c / 64] |= std::uint64_t{1} << (c % 64);
    }
  }
}

DeltaEncoder::Emitted DeltaEncoder::emit(
    std::size_t holder, const serial::Bytes& state,
    const std::optional<DirtyRanges>& hints) {
  JACEPP_CHECK(holder < holders_.size(), "DeltaEncoder: holder out of range");
  refresh_changed_chunks(state, hints);
  Holder& h = holders_[holder];
  // Both frame kinds carry the state CRC, and a full frame's own CRC is
  // combined from it: this is the save's one CRC pass over the state.
  const std::uint32_t state_crc = serial::crc32(state);

  const std::uint64_t budget = policy_.chain_byte_budget != 0
                                   ? policy_.chain_byte_budget
                                   : std::max<std::uint64_t>(state.size(), 1);
  bool full = h.needs_full || h.baseline_id == 0 ||
              h.delta_seq >= policy_.rebase_every || h.chain_bytes >= budget;

  Emitted out;
  if (!full) {
    scratch_chunks_.clear();
    const std::size_t chunks = chunk_count(state.size());
    for (std::size_t c = 0; c < chunks; ++c) {
      if (c / 64 < h.dirty.size() &&
          (h.dirty[c / 64] >> (c % 64) & 1) != 0) {
        scratch_chunks_.push_back(static_cast<std::uint32_t>(c));
      }
    }
    // A delta no smaller than the state is no cheaper than a baseline and
    // would only lengthen the chain toward its next rebase. The exact size
    // decides before anything is encoded: a state of one chunk that changed
    // always lands here, since its delta is the whole state plus framing.
    const std::size_t size =
        delta_frame_size(h.baseline_id, h.delta_seq + 1, policy_.chunk_size,
                         state.size(), scratch_chunks_);
    if (size >= state.size()) {
      full = true;
    } else {
      ++h.delta_seq;
      out.frame = delta_frame(h.baseline_id, h.delta_seq, policy_.chunk_size,
                              state, state_crc, scratch_chunks_, size);
      h.chain_bytes += out.frame.size();
      std::fill(h.dirty.begin(), h.dirty.end(), 0);
      out.kind = FrameKind::Delta;
      out.baseline_id = h.baseline_id;
      out.delta_seq = h.delta_seq;
      out.chunks_carried = scratch_chunks_.size();
      ++deltas_emitted_;
      delta_bytes_ += out.frame.size();
    }
  }

  if (full) {
    const std::uint64_t id = next_baseline_id_++;
    out.frame = full_frame(id, policy_.chunk_size, state, state_crc);
    out.kind = FrameKind::Full;
    out.baseline_id = id;
    out.delta_seq = 0;
    out.chunks_carried = chunk_count(state.size());
    h.baseline_id = id;
    h.delta_seq = 0;
    h.chain_bytes = 0;
    h.needs_full = false;
    std::fill(h.dirty.begin(), h.dirty.end(), 0);
    ++fulls_emitted_;
    full_bytes_ += out.frame.size();
  }
  return out;
}

void DeltaEncoder::mark_needs_full(std::size_t holder) {
  if (holder < holders_.size()) holders_[holder].needs_full = true;
}

}  // namespace jacepp::core::checkpoint
