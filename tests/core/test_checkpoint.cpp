// Property-style tests for the incremental checkpoint path: random dirty
// patterns must reconstruct bit-identically through encoder → frames →
// BackupStore chain → materialize, and every corruption mode must degrade to
// a detectable fallback (NACK / dropped chain), never to silent wrong state.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "core/backup.hpp"
#include "serial/checksum.hpp"

namespace jacepp::core {
namespace {

using checkpoint::CheckpointPolicy;
using checkpoint::DeltaEncoder;
using checkpoint::DirtyRanges;
using checkpoint::FrameKind;
using serial::Bytes;

Bytes random_state(std::mt19937_64& rng, std::size_t size) {
  Bytes state(size);
  for (auto& b : state) b = static_cast<std::uint8_t>(rng());
  return state;
}

/// Flip random byte ranges of `state`, returning honest dirty hints.
DirtyRanges mutate(std::mt19937_64& rng, Bytes& state, int range_count) {
  DirtyRanges d;
  if (state.empty()) return d;
  std::uniform_int_distribution<std::size_t> pos(0, state.size() - 1);
  std::uniform_int_distribution<std::size_t> len(1, 1 + state.size() / 8);
  for (int i = 0; i < range_count; ++i) {
    const std::size_t lo = pos(rng);
    const std::size_t hi = std::min(state.size(), lo + len(rng));
    for (std::size_t j = lo; j < hi; ++j) {
      state[j] = static_cast<std::uint8_t>(rng());
    }
    d.mark(lo, hi);
  }
  return d;
}

CheckpointPolicy small_chunks() {
  CheckpointPolicy p;
  p.chunk_size = 32;
  p.rebase_every = 1000;      // keep chains long unless a test wants rebases
  p.chain_byte_budget = 1u << 30;
  return p;
}

// --- Codec ----------------------------------------------------------------

TEST(CheckpointCodec, FullFrameRoundTrips) {
  std::mt19937_64 rng(1);
  const Bytes state = random_state(rng, 1000);
  const Bytes frame = checkpoint::encode_full_frame(7, 64, state);
  const auto decoded = checkpoint::decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, FrameKind::Full);
  EXPECT_EQ(decoded->baseline_id, 7u);
  EXPECT_EQ(decoded->delta_seq, 0u);
  EXPECT_EQ(decoded->chunk_size, 64u);
  EXPECT_EQ(decoded->total_size, state.size());
  EXPECT_EQ(decoded->full_state, state);
  EXPECT_EQ(decoded->state_checksum, serial::crc32(state));
}

TEST(CheckpointCodec, DeltaFrameRoundTrips) {
  std::mt19937_64 rng(2);
  const Bytes state = random_state(rng, 300);  // 10 chunks of 32, last short
  const Bytes frame =
      checkpoint::encode_delta_frame(3, 5, 32, state, {0, 4, 9});
  const auto decoded = checkpoint::decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, FrameKind::Delta);
  EXPECT_EQ(decoded->baseline_id, 3u);
  EXPECT_EQ(decoded->delta_seq, 5u);
  ASSERT_EQ(decoded->chunks.size(), 3u);
  EXPECT_EQ(decoded->chunks[0].first, 0u);
  EXPECT_EQ(decoded->chunks[2].first, 9u);
  // The last chunk is the 300 - 9*32 = 12-byte tail.
  EXPECT_EQ(decoded->chunks[2].second.size(), 12u);
  EXPECT_EQ(Bytes(state.begin(), state.begin() + 32), decoded->chunks[0].second);
}

TEST(CheckpointCodec, EveryTruncationIsRejected) {
  std::mt19937_64 rng(3);
  const Bytes state = random_state(rng, 257);
  const Bytes frame = checkpoint::encode_delta_frame(1, 1, 32, state, {2, 7});
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const Bytes truncated(frame.begin(),
                          frame.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(checkpoint::decode_frame(truncated).has_value())
        << "truncation to " << keep << " bytes decoded";
  }
}

TEST(CheckpointCodec, EverySingleByteFlipIsRejected) {
  std::mt19937_64 rng(4);
  const Bytes state = random_state(rng, 200);
  const Bytes frame = checkpoint::encode_full_frame(1, 64, state);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    Bytes corrupt = frame;
    corrupt[i] ^= 0x40;
    EXPECT_FALSE(checkpoint::decode_frame(corrupt).has_value())
        << "flip at byte " << i << " decoded";
  }
}

/// A full frame written field by field, sealed with a valid frame CRC, so a
/// test can make one field lie while the frame check still passes.
Bytes sealed_full_frame(std::uint64_t total_size, std::uint32_t state_crc,
                        std::uint64_t payload_len, const Bytes& payload) {
  serial::Writer w;
  w.u8(static_cast<std::uint8_t>(FrameKind::Full));
  w.varint(1);    // baseline_id
  w.varint(0);    // delta_seq
  w.varint(64);   // chunk_size
  w.varint(total_size);
  w.u32(state_crc);
  w.varint(payload_len);
  for (const std::uint8_t b : payload) w.u8(b);
  w.u32(serial::crc32(w.data()));
  return w.take();
}

TEST(CheckpointCodec, HandSealedFullFrameMatchesEncoder) {
  std::mt19937_64 rng(5);
  const Bytes state = random_state(rng, 300);
  EXPECT_EQ(sealed_full_frame(state.size(), serial::crc32(state), state.size(),
                              state),
            checkpoint::encode_full_frame(1, 64, state));
}

TEST(CheckpointCodec, FullFrameWithWrongStateCrcIsRejected) {
  std::mt19937_64 rng(6);
  const Bytes state = random_state(rng, 300);
  const Bytes frame = sealed_full_frame(state.size(), serial::crc32(state) ^ 1,
                                        state.size(), state);
  EXPECT_FALSE(checkpoint::decode_frame(frame).has_value());
}

TEST(CheckpointCodec, FullFramePayloadLengthMustMatchRemainingBytes) {
  // The prologue agrees with itself (total_size equals the declared payload
  // length) and the state CRC is that of the first or of the last `len`
  // bytes, so only the count of bytes left can reject these frames.
  std::mt19937_64 rng(7);
  const Bytes state = random_state(rng, 300);
  for (const std::uint64_t len :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{299},
        std::uint64_t{301}, std::uint64_t{1} << 40}) {
    const std::size_t n = std::min<std::size_t>(len, state.size());
    for (const std::uint32_t crc :
         {serial::crc32(state.data(), n),
          serial::crc32(state.data() + state.size() - n, n)}) {
      EXPECT_FALSE(
          checkpoint::decode_frame(sealed_full_frame(len, crc, len, state))
              .has_value())
          << "declared payload length " << len;
    }
  }
}

TEST(CheckpointCodec, SubChunkStateAlwaysEmitsFullFrames) {
  // The deployments' shape: a state under one 4096-byte chunk that changes
  // on every save. Its only possible delta carries the whole state plus
  // framing, so the encoder must send a baseline every time, byte-equal to
  // encode_full_frame, and never a delta.
  std::mt19937_64 rng(8);
  CheckpointPolicy policy;
  policy.chunk_size = 4096;
  DeltaEncoder encoder(policy, /*holder_count=*/2);
  Bytes state = random_state(rng, 3 << 10);
  for (int save = 0; save < 20; ++save) {
    const auto hints = mutate(rng, state, 1);
    const auto emitted = encoder.emit(save % 2, state, hints);
    EXPECT_EQ(emitted.kind, FrameKind::Full) << "save " << save;
    EXPECT_EQ(emitted.frame, checkpoint::encode_full_frame(
                                 emitted.baseline_id, 4096, state))
        << "save " << save;
  }
  EXPECT_EQ(encoder.deltas_emitted(), 0u);
  EXPECT_EQ(encoder.fulls_emitted(), 20u);
}

// --- Encoder → store round trips ------------------------------------------

TEST(CheckpointRoundTrip, RandomDirtyPatternsReconstructBitIdentically) {
  std::mt19937_64 rng(42);
  DeltaEncoder encoder(small_chunks(), /*holder_count=*/1);
  BackupStore store;
  Bytes state = random_state(rng, 2048);

  for (int step = 0; step < 200; ++step) {
    const auto hints = mutate(rng, state, 1 + static_cast<int>(rng() % 4));
    const auto emitted = encoder.emit(0, state, hints);
    const auto result = store.store_frame(1, 0, step + 1, emitted.frame);
    ASSERT_TRUE(result.accepted) << "step " << step;
    ASSERT_FALSE(result.needs_full);
    const auto rebuilt = store.materialize(1, 0);
    ASSERT_TRUE(rebuilt.has_value()) << "step " << step;
    EXPECT_EQ(*rebuilt, state) << "step " << step;
  }
  // With honest hints the steady state must actually be deltas.
  EXPECT_GT(encoder.deltas_emitted(), 150u);
}

TEST(CheckpointRoundTrip, RoundRobinHoldersEachReconstruct) {
  // Paper Figure 5: saves alternate across holders. Each holder sees only
  // every Nth frame, yet each one's chain must materialize the state as of
  // ITS latest frame.
  std::mt19937_64 rng(43);
  constexpr std::size_t kHolders = 3;
  DeltaEncoder encoder(small_chunks(), kHolders);
  BackupStore stores[kHolders];
  Bytes state = random_state(rng, 1024);

  for (int step = 0; step < 120; ++step) {
    const std::size_t holder = static_cast<std::size_t>(step) % kHolders;
    const auto hints = mutate(rng, state, 2);
    const auto emitted = encoder.emit(holder, state, hints);
    ASSERT_TRUE(
        stores[holder].store_frame(1, 0, step + 1, emitted.frame).accepted);
    const auto rebuilt = stores[holder].materialize(1, 0);
    ASSERT_TRUE(rebuilt.has_value());
    EXPECT_EQ(*rebuilt, state) << "holder " << holder << " step " << step;
  }
}

TEST(CheckpointRoundTrip, NoHintsMeansCompareEverything) {
  std::mt19937_64 rng(44);
  DeltaEncoder encoder(small_chunks(), 1);
  BackupStore store;
  Bytes state = random_state(rng, 512);
  for (int step = 0; step < 50; ++step) {
    mutate(rng, state, 1);  // hints discarded: pass nullopt below
    const auto emitted = encoder.emit(0, state, std::nullopt);
    ASSERT_TRUE(store.store_frame(1, 0, step + 1, emitted.frame).accepted);
    ASSERT_EQ(store.materialize(1, 0), state);
  }
  EXPECT_GT(encoder.deltas_emitted(), 40u);
}

TEST(CheckpointRoundTrip, SizeChangeForcesRebaseEverywhere) {
  std::mt19937_64 rng(45);
  DeltaEncoder encoder(small_chunks(), 2);
  Bytes state = random_state(rng, 256);
  (void)encoder.emit(0, state, std::nullopt);
  (void)encoder.emit(1, state, std::nullopt);
  (void)encoder.emit(0, state, std::nullopt);  // delta now

  state = random_state(rng, 320);  // resized: all chains invalid
  EXPECT_EQ(encoder.emit(0, state, std::nullopt).kind, FrameKind::Full);
  EXPECT_EQ(encoder.emit(1, state, std::nullopt).kind, FrameKind::Full);
}

TEST(CheckpointRoundTrip, RebaseEveryBoundsChainLength) {
  std::mt19937_64 rng(46);
  CheckpointPolicy p = small_chunks();
  p.rebase_every = 4;
  DeltaEncoder encoder(p, 1);
  BackupStore store;
  Bytes state = random_state(rng, 512);
  for (int step = 0; step < 40; ++step) {
    mutate(rng, state, 1);
    const auto emitted = encoder.emit(0, state, std::nullopt);
    ASSERT_TRUE(store.store_frame(1, 0, step + 1, emitted.frame).accepted);
    const auto* entry = store.find(1, 0);
    ASSERT_NE(entry, nullptr);
    EXPECT_LE(entry->last_delta_seq, 4u);
  }
  EXPECT_GE(encoder.fulls_emitted(), 40u / 5u);
}

TEST(BackupStore, AppliedDeltasKeepOneState) {
  // A holder writes each delta into its copy of the state on arrival, so
  // after a baseline and N deltas it keeps one state's bytes, not the
  // baseline plus N frames.
  std::mt19937_64 rng(52);
  DeltaEncoder encoder(small_chunks(), 1);
  BackupStore store;
  Bytes state = random_state(rng, 1024);
  ASSERT_TRUE(
      store.store_frame(1, 0, 1, encoder.emit(0, state, std::nullopt).frame)
          .accepted);
  for (std::uint64_t step = 2; step <= 10; ++step) {
    mutate(rng, state, 1);
    const auto emitted = encoder.emit(0, state, std::nullopt);
    ASSERT_EQ(emitted.kind, FrameKind::Delta) << "step " << step;
    ASSERT_TRUE(store.store_frame(1, 0, step, emitted.frame).accepted);
    EXPECT_EQ(store.bytes(), state.size()) << "step " << step;
  }
  ASSERT_NE(store.find(1, 0), nullptr);
  EXPECT_EQ(store.find(1, 0)->last_delta_seq, 9u);
  EXPECT_EQ(store.materialize(1, 0), state);
}

// --- Failure modes ---------------------------------------------------------

TEST(CheckpointFailure, LostDeltaTriggersNackAndRebaseHeals) {
  std::mt19937_64 rng(47);
  DeltaEncoder encoder(small_chunks(), 1);
  BackupStore store;
  Bytes state = random_state(rng, 1024);

  auto emitted = encoder.emit(0, state, std::nullopt);
  ASSERT_TRUE(store.store_frame(1, 0, 1, emitted.frame).accepted);

  mutate(rng, state, 1);
  emitted = encoder.emit(0, state, std::nullopt);  // delta: LOST in transit

  mutate(rng, state, 1);
  emitted = encoder.emit(0, state, std::nullopt);  // next delta: seq gap
  const auto gap = store.store_frame(1, 0, 3, emitted.frame);
  EXPECT_FALSE(gap.accepted);
  EXPECT_TRUE(gap.needs_full);
  // Chain is stale but still usable (state as of frame 1 semantics would be
  // wrong — the holder keeps the OLD state, which is consistent).
  EXPECT_TRUE(store.materialize(1, 0).has_value());

  // The NACK reaches the sender: next frame is a baseline and heals.
  encoder.mark_needs_full(0);
  mutate(rng, state, 1);
  emitted = encoder.emit(0, state, std::nullopt);
  EXPECT_EQ(emitted.kind, FrameKind::Full);
  ASSERT_TRUE(store.store_frame(1, 0, 4, emitted.frame).accepted);
  EXPECT_EQ(store.materialize(1, 0), state);
}

TEST(CheckpointFailure, DuplicateAndReorderedDeltasAreIdempotent) {
  std::mt19937_64 rng(48);
  DeltaEncoder encoder(small_chunks(), 1);
  BackupStore store;
  Bytes state = random_state(rng, 512);

  std::vector<Bytes> frames;
  frames.push_back(encoder.emit(0, state, std::nullopt).frame);
  for (int i = 0; i < 3; ++i) {
    mutate(rng, state, 1);
    frames.push_back(encoder.emit(0, state, std::nullopt).frame);
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(store.store_frame(1, 0, i + 1, frames[i]).accepted);
  }
  // Late duplicates of already-applied frames: acknowledged, no effect.
  EXPECT_TRUE(store.store_frame(1, 0, 2, frames[1]).accepted);
  EXPECT_TRUE(store.store_frame(1, 0, 3, frames[2]).accepted);
  EXPECT_EQ(store.materialize(1, 0), state);
}

TEST(CheckpointFailure, CorruptFrameNackedChainSurvives) {
  std::mt19937_64 rng(49);
  DeltaEncoder encoder(small_chunks(), 1);
  BackupStore store;
  Bytes state = random_state(rng, 512);
  ASSERT_TRUE(
      store.store_frame(1, 0, 1, encoder.emit(0, state, std::nullopt).frame)
          .accepted);
  const Bytes before = *store.materialize(1, 0);

  mutate(rng, state, 1);
  Bytes frame = encoder.emit(0, state, std::nullopt).frame;
  frame[frame.size() / 2] ^= 0xFF;
  const auto result = store.store_frame(1, 0, 2, frame);
  EXPECT_FALSE(result.accepted);
  EXPECT_TRUE(result.needs_full);
  EXPECT_EQ(store.materialize(1, 0), before);  // old chain untouched
}

TEST(CheckpointFailure, DeltaChunkOutsideTheStateIsNacked) {
  // A holder writes delta chunks straight into its state, so a frame whose
  // chunk lies outside the state must be refused even when its CRC is valid.
  // 100 bytes in chunks of 32: indices 0..3, the last one a 4-byte tail.
  std::mt19937_64 rng(53);
  const Bytes state = random_state(rng, 100);
  BackupStore store;
  ASSERT_TRUE(
      store.store_frame(1, 0, 1, checkpoint::encode_full_frame(1, 32, state))
          .accepted);
  const auto sealed_delta = [&](std::uint64_t index, std::size_t len) {
    serial::Writer w;
    w.u8(static_cast<std::uint8_t>(FrameKind::Delta));
    w.varint(1);    // baseline_id
    w.varint(1);    // delta_seq
    w.varint(32);   // chunk_size
    w.varint(state.size());
    w.u32(serial::crc32(state));
    w.varint(1);    // chunk count
    w.varint(index);
    w.bytes(Bytes(len, 0xAB));
    w.u32(serial::crc32(w.data()));
    return w.take();
  };
  for (const auto& [index, len] :
       {std::pair<std::uint64_t, std::size_t>{4, 32}, {3, 32}, {3, 5},
        {std::uint64_t{1} << 40, 32}}) {
    const auto result = store.store_frame(1, 0, 2, sealed_delta(index, len));
    EXPECT_FALSE(result.accepted) << "chunk " << index << ", " << len << " B";
    EXPECT_TRUE(result.needs_full);
  }
  EXPECT_TRUE(store.store_frame(1, 0, 2, sealed_delta(3, 4)).accepted);
  EXPECT_EQ(store.find(1, 0)->last_delta_seq, 1u);
}

TEST(CheckpointFailure, TamperedStoredChainIsDroppedAtMaterialize) {
  // The store trusts frames at ingest (they passed the frame CRC); if disk/
  // memory corruption hits a stored delta afterwards, the STATE checksum must
  // catch it at materialize time and drop the chain instead of serving a
  // wrong state to a replacement daemon.
  std::mt19937_64 rng(50);
  DeltaEncoder encoder(small_chunks(), 1);
  BackupStore store;
  Bytes state = random_state(rng, 512);
  ASSERT_TRUE(
      store.store_frame(1, 0, 1, encoder.emit(0, state, std::nullopt).frame)
          .accepted);
  mutate(rng, state, 1);
  Bytes frame = encoder.emit(0, state, std::nullopt).frame;

  // Re-encode the delta with the same ids but chunks taken from a DIFFERENT
  // state: frame-valid, chain-poisonous.
  const auto decoded = checkpoint::decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_FALSE(decoded->chunks.empty());
  Bytes other = random_state(rng, 512);
  std::vector<std::uint32_t> indices;
  for (const auto& [index, payload] : decoded->chunks) indices.push_back(index);
  Bytes poisoned = checkpoint::encode_delta_frame(
      decoded->baseline_id, decoded->delta_seq, decoded->chunk_size, other,
      indices);
  // Splice the original state checksum in so ingest cannot tell… it cannot:
  // the checksum lives inside the CRC-protected header, so the splice is a
  // corrupt frame. Store the honestly-encoded wrong-content frame instead.
  ASSERT_TRUE(store.store_frame(1, 0, 2, poisoned).accepted);
  EXPECT_EQ(store.materialize(1, 0), std::nullopt);  // checksum mismatch
  EXPECT_EQ(store.find(1, 0), nullptr);              // chain dropped
}

TEST(CheckpointFailure, UnderMarkedHintsAreCaughtNotSilent) {
  // A task that forgets to mark a range produces a delta whose reconstruction
  // diverges from the true state. The encoder cannot see it (it trusts the
  // hint for chunks it skips), but the holder-side state checksum fails.
  std::mt19937_64 rng(51);
  DeltaEncoder encoder(small_chunks(), 1);
  BackupStore store;
  Bytes state = random_state(rng, 512);
  ASSERT_TRUE(
      store.store_frame(1, 0, 1, encoder.emit(0, state, std::nullopt).frame)
          .accepted);

  state[100] ^= 0xFF;  // change OUTSIDE the hinted range
  DirtyRanges lying;
  lying.mark(400, 420);
  state[410] ^= 0xFF;
  const auto emitted = encoder.emit(0, state, lying);
  ASSERT_TRUE(store.store_frame(1, 0, 2, emitted.frame).accepted);
  EXPECT_EQ(store.materialize(1, 0), std::nullopt);  // divergence detected
}

// --- BackupStore budget / eviction -----------------------------------------

TEST(BackupStoreBudget, EvictsWholeOldAppsFinishedFirst) {
  BackupStore store;
  store.set_byte_budget(1500);
  const Bytes state(400, 7);
  store.store_frame(1, 0, 1, checkpoint::encode_full_frame(1, 64, state));
  store.store_frame(2, 0, 1, checkpoint::encode_full_frame(1, 64, state));
  store.store_frame(3, 0, 1, checkpoint::encode_full_frame(1, 64, state));
  EXPECT_EQ(store.size(), 3u);
  store.mark_app_finished(2);

  // The 4th app pushes past 1500 bytes: the finished app goes first even
  // though app 1 is staler.
  store.store_frame(4, 0, 1, checkpoint::encode_full_frame(1, 64, state));
  EXPECT_EQ(store.find(2, 0), nullptr);
  ASSERT_NE(store.find(1, 0), nullptr);
  EXPECT_EQ(store.evicted_apps(), 1u);

  // Next overflow: no finished apps left, the least recently stored (app 1)
  // is the victim; the app being stored into is protected.
  store.store_frame(5, 0, 1, checkpoint::encode_full_frame(1, 64, state));
  EXPECT_EQ(store.find(1, 0), nullptr);
  ASSERT_NE(store.find(5, 0), nullptr);
  EXPECT_LE(store.bytes(), 1500u);
}

TEST(BackupStoreBudget, NeverEvictsTheAppBeingStored) {
  BackupStore store;
  store.set_byte_budget(100);  // smaller than a single 400-byte state
  const Bytes state(400, 7);
  ASSERT_TRUE(
      store.store_frame(9, 0, 1, checkpoint::encode_full_frame(1, 64, state))
          .accepted);
  // Over budget but the only app is the protected one: entry survives.
  ASSERT_NE(store.find(9, 0), nullptr);
  EXPECT_EQ(store.materialize(9, 0), state);
}

}  // namespace
}  // namespace jacepp::core
