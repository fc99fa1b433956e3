// Property-style tests for the checkpoint path: random states must
// reconstruct bit-identically through encoder → frame → BackupStore →
// materialize, and every corruption mode must degrade to a detectable
// fallback (a refused frame, a dropped state), never to silent wrong state.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "core/backup.hpp"
#include "serial/checksum.hpp"

namespace jacepp::core {
namespace {

using checkpoint::DeltaEncoder;
using checkpoint::FrameKind;
using serial::Bytes;

Bytes random_state(std::mt19937_64& rng, std::size_t size) {
  Bytes state(size);
  for (auto& b : state) b = static_cast<std::uint8_t>(rng());
  return state;
}

/// Overwrite `range_count` random byte ranges of `state`.
void mutate(std::mt19937_64& rng, Bytes& state, int range_count) {
  if (state.empty()) return;
  std::uniform_int_distribution<std::size_t> pos(0, state.size() - 1);
  std::uniform_int_distribution<std::size_t> len(1, 1 + state.size() / 8);
  for (int i = 0; i < range_count; ++i) {
    const std::size_t lo = pos(rng);
    const std::size_t hi = std::min(state.size(), lo + len(rng));
    for (std::size_t j = lo; j < hi; ++j) {
      state[j] = static_cast<std::uint8_t>(rng());
    }
  }
}

/// The next save of `state` through `encoder`.
Bytes save(DeltaEncoder& encoder, const Bytes& state) {
  return encoder.emit(0, state, std::nullopt).frame;
}

// --- Codec ----------------------------------------------------------------

TEST(CheckpointCodec, FullFrameRoundTrips) {
  std::mt19937_64 rng(1);
  const Bytes state = random_state(rng, 1000);
  const Bytes frame = checkpoint::encode_full_frame(7, 64, state);
  const auto decoded = checkpoint::decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->baseline_id, 7u);
  EXPECT_EQ(decoded->full_state, state);
  EXPECT_EQ(decoded->state_checksum, serial::crc32(state));
}

TEST(CheckpointCodec, EveryTruncationIsRejected) {
  std::mt19937_64 rng(3);
  const Bytes state = random_state(rng, 257);
  const Bytes frame = checkpoint::encode_full_frame(1, 32, state);
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

/// The prologue fields a test may make lie; the defaults are an honest
/// whole-state frame's.
struct Prologue {
  std::uint8_t kind = 0;
  std::uint64_t delta_seq = 0;
  std::uint64_t chunk_size = 64;
};

/// A frame written field by field, sealed with a valid frame CRC, so a test
/// can make one field lie while the frame check still passes.
Bytes sealed_frame(const Prologue& p, std::uint64_t total_size,
                   std::uint32_t state_crc, std::uint64_t payload_len,
                   const Bytes& payload) {
  serial::Writer w;
  w.u8(p.kind);
  w.varint(1);  // baseline_id
  w.varint(p.delta_seq);
  w.varint(p.chunk_size);
  w.varint(total_size);
  w.u32(state_crc);
  w.varint(payload_len);
  for (const std::uint8_t b : payload) w.u8(b);
  w.u32(serial::crc32(w.data()));
  return w.take();
}

Bytes sealed_full_frame(std::uint64_t total_size, std::uint32_t state_crc,
                        std::uint64_t payload_len, const Bytes& payload) {
  return sealed_frame({}, total_size, state_crc, payload_len, payload);
}

/// An honest state sealed with prologue `p`.
Bytes sealed_frame(const Prologue& p, const Bytes& state) {
  return sealed_frame(p, state.size(), serial::crc32(state), state.size(),
                      state);
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

TEST(CheckpointCodec, PrologueFixedFieldsAreChecked) {
  // Sealed frames carrying an honest state: only the named field can make
  // decode_frame refuse them. Any kind but 0 and any delta_seq but 0 are
  // refused; any chunk size from 1 to 2^32 - 1 is accepted.
  std::mt19937_64 rng(9);
  const Bytes state = random_state(rng, 100);
  for (const std::uint8_t kind : {1, 2, 0xff}) {
    EXPECT_FALSE(checkpoint::decode_frame(sealed_frame({kind, 0, 64}, state))
                     .has_value())
        << "kind " << int{kind};
  }
  for (const std::uint64_t seq : {std::uint64_t{1}, std::uint64_t{1} << 40}) {
    EXPECT_FALSE(checkpoint::decode_frame(sealed_frame({0, seq, 64}, state))
                     .has_value())
        << "delta_seq " << seq;
  }
  for (const std::uint64_t chunk :
       {std::uint64_t{0}, std::uint64_t{1} << 32}) {
    EXPECT_FALSE(checkpoint::decode_frame(sealed_frame({0, 0, chunk}, state))
                     .has_value())
        << "chunk size " << chunk;
  }
  for (const std::uint64_t chunk :
       {std::uint64_t{1}, std::uint64_t{4096}, std::uint64_t{0xFFFFFFFF}}) {
    const auto decoded =
        checkpoint::decode_frame(sealed_frame({0, 0, chunk}, state));
    ASSERT_TRUE(decoded.has_value()) << "chunk size " << chunk;
    EXPECT_EQ(decoded->full_state, state);
  }
}

TEST(CheckpointCodec, EveryEmitIsOneFullFrame) {
  // States below and above the prologue's chunk size, changed or not
  // between saves: each save is the whole state, byte-equal to
  // encode_full_frame, numbered from 1 up.
  std::mt19937_64 rng(8);
  DeltaEncoder encoder;
  Bytes state = random_state(rng, 3 << 10);
  for (std::uint64_t n = 1; n <= 20; ++n) {
    if (n == 11) state = random_state(rng, 10 << 10);
    if (n % 3 != 0) mutate(rng, state, 1);
    const auto emitted = encoder.emit(n % 2, state, std::nullopt);
    EXPECT_EQ(emitted.kind, FrameKind::Full) << "save " << n;
    EXPECT_EQ(emitted.frame,
              checkpoint::encode_full_frame(n, checkpoint::kFrameChunkSize,
                                            state))
        << "save " << n;
  }
}

// --- Encoder → store round trips ------------------------------------------

TEST(CheckpointRoundTrip, RandomDirtyPatternsReconstructBitIdentically) {
  std::mt19937_64 rng(42);
  DeltaEncoder encoder;
  BackupStore store;
  Bytes state = random_state(rng, 2048);

  for (int step = 0; step < 200; ++step) {
    mutate(rng, state, 1 + static_cast<int>(rng() % 4));
    const auto result = store.store_frame(1, 0, step + 1, save(encoder, state));
    ASSERT_TRUE(result.accepted) << "step " << step;
    ASSERT_FALSE(result.needs_full);
    const auto rebuilt = store.materialize(1, 0);
    ASSERT_TRUE(rebuilt.has_value()) << "step " << step;
    EXPECT_EQ(*rebuilt, state) << "step " << step;
  }
}

TEST(CheckpointRoundTrip, RoundRobinHoldersEachReconstruct) {
  // Paper Figure 5: saves alternate across holders. Each holder sees only
  // every Nth frame, yet each one must materialize the state as of ITS
  // latest frame.
  std::mt19937_64 rng(43);
  constexpr std::size_t kHolders = 3;
  DeltaEncoder encoder;
  BackupStore stores[kHolders];
  Bytes state = random_state(rng, 1024);

  for (int step = 0; step < 120; ++step) {
    const std::size_t holder = static_cast<std::size_t>(step) % kHolders;
    mutate(rng, state, 2);
    const auto emitted = encoder.emit(holder, state, std::nullopt);
    ASSERT_TRUE(
        stores[holder].store_frame(1, 0, step + 1, emitted.frame).accepted);
    const auto rebuilt = stores[holder].materialize(1, 0);
    ASSERT_TRUE(rebuilt.has_value());
    EXPECT_EQ(*rebuilt, state) << "holder " << holder << " step " << step;
  }
}

TEST(CheckpointRoundTrip, ResizedStateRoundTrips) {
  // A state that changes size between saves reaches every holder whole.
  std::mt19937_64 rng(45);
  DeltaEncoder encoder;
  BackupStore stores[2];
  Bytes state = random_state(rng, 256);
  for (std::uint64_t step = 1; step <= 4; ++step) {
    if (step == 3) state = random_state(rng, 320);
    const std::size_t holder = step % 2;
    ASSERT_TRUE(stores[holder]
                    .store_frame(1, 0, step,
                                 encoder.emit(holder, state, std::nullopt).frame)
                    .accepted);
    EXPECT_EQ(stores[holder].materialize(1, 0), state) << "step " << step;
  }
}

TEST(BackupStore, HoldsOneStatePerTask) {
  // Each save replaces the held state, so after N saves of a task the
  // holder keeps one state's bytes, not N.
  std::mt19937_64 rng(52);
  DeltaEncoder encoder;
  BackupStore store;
  Bytes state = random_state(rng, 1024);
  for (std::uint64_t step = 1; step <= 10; ++step) {
    mutate(rng, state, 1);
    ASSERT_TRUE(store.store_frame(1, 0, step, save(encoder, state)).accepted);
    EXPECT_EQ(store.bytes(), state.size()) << "step " << step;
  }
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.materialize(1, 0), state);
}

// --- Failure modes ---------------------------------------------------------

TEST(CheckpointFailure, LostSaveLeavesTheOlderStateUntilTheNext) {
  // A save lost in transit costs only itself: the holder keeps the state
  // it had, and the next save replaces it whole.
  std::mt19937_64 rng(47);
  DeltaEncoder encoder;
  BackupStore store;
  Bytes state = random_state(rng, 1024);
  ASSERT_TRUE(store.store_frame(1, 0, 1, save(encoder, state)).accepted);
  const Bytes first = state;

  mutate(rng, state, 1);
  (void)save(encoder, state);  // lost in transit
  EXPECT_EQ(store.materialize(1, 0), first);

  mutate(rng, state, 1);
  ASSERT_TRUE(store.store_frame(1, 0, 3, save(encoder, state)).accepted);
  EXPECT_EQ(store.materialize(1, 0), state);
}

TEST(CheckpointFailure, OlderSaveArrivingLateIsIgnored) {
  // Saves can arrive out of order. One for an older iteration than the
  // state held is ignored, and materialize returns the newer state.
  std::mt19937_64 rng(48);
  DeltaEncoder encoder;
  BackupStore store;
  Bytes state = random_state(rng, 512);
  const Bytes older_frame = save(encoder, state);
  mutate(rng, state, 1);
  ASSERT_TRUE(store.store_frame(1, 0, 10, save(encoder, state)).accepted);

  const auto late = store.store_frame(1, 0, 5, older_frame);
  EXPECT_FALSE(late.accepted);
  EXPECT_FALSE(late.needs_full);
  EXPECT_EQ(store.find(1, 0)->iteration, 10u);
  EXPECT_EQ(store.materialize(1, 0), state);
}

TEST(CheckpointFailure, CorruptFrameLeavesHeldStateUntouched) {
  std::mt19937_64 rng(49);
  DeltaEncoder encoder;
  BackupStore store;
  Bytes state = random_state(rng, 512);
  ASSERT_TRUE(store.store_frame(1, 0, 1, save(encoder, state)).accepted);
  const Bytes before = *store.materialize(1, 0);

  mutate(rng, state, 1);
  Bytes frame = save(encoder, state);
  frame[frame.size() / 2] ^= 0xFF;
  const auto result = store.store_frame(1, 0, 2, frame);
  EXPECT_FALSE(result.accepted);
  EXPECT_TRUE(result.needs_full);
  EXPECT_EQ(store.find(1, 0)->iteration, 1u);
  EXPECT_EQ(store.materialize(1, 0), before);
}

TEST(CheckpointFailure, DeltaFramesAreRefused) {
  // A SaveBackup whose frame passes the frame CRC but is not a whole-state
  // frame is refused, and the held state stays as it was: a delta (kind 1)
  // carrying one chunk that extends the held frame's baseline, a
  // whole-state frame whose delta_seq is 1, and one whose kind byte is 1.
  std::mt19937_64 rng(53);
  const Bytes state = random_state(rng, 100);
  BackupStore store;
  ASSERT_TRUE(
      store.store_frame(1, 0, 1, checkpoint::encode_full_frame(1, 32, state))
          .accepted);

  Bytes other = state;
  other[0] ^= 0xAB;
  // A delta carrying chunk 0 (32 bytes) of `other`.
  serial::Writer delta;
  delta.u8(1);       // kind: delta
  delta.varint(1);   // baseline_id
  delta.varint(1);   // delta_seq
  delta.varint(32);  // chunk_size
  delta.varint(other.size());
  delta.u32(serial::crc32(other));
  delta.varint(1);  // chunk count
  delta.varint(0);  // chunk index
  delta.bytes(other.data(), 32);
  delta.u32(serial::crc32(delta.data()));

  for (const Bytes& frame :
       {delta.take(), sealed_frame({0, 1, 32}, other),
        sealed_frame({1, 1, 32}, other)}) {
    const auto result = store.store_frame(1, 0, 2, frame);
    EXPECT_FALSE(result.accepted);
    EXPECT_TRUE(result.needs_full);
    EXPECT_EQ(store.find(1, 0)->iteration, 1u);
    EXPECT_EQ(store.materialize(1, 0), state);
  }
}

TEST(CheckpointFailure, TamperedStoredStateIsDroppedAtMaterialize) {
  // The store trusts frames at ingest (they passed the frame CRC); if
  // memory corruption hits a held state afterwards, the STATE checksum must
  // catch it at materialize time and drop the state instead of serving a
  // wrong one to a replacement daemon.
  std::mt19937_64 rng(50);
  DeltaEncoder encoder;
  BackupStore store;
  const Bytes state = random_state(rng, 512);
  ASSERT_TRUE(store.store_frame(1, 0, 1, save(encoder, state)).accepted);
  const BackupStore::Entry* held = store.find(1, 0);
  ASSERT_NE(held, nullptr);
  const_cast<BackupStore::Entry*>(held)->state[100] ^= 0x01;
  EXPECT_EQ(store.materialize(1, 0), std::nullopt);  // checksum mismatch
  EXPECT_EQ(store.find(1, 0), nullptr);              // state dropped
  EXPECT_EQ(store.bytes(), 0u);
}

}  // namespace
}  // namespace jacepp::core
