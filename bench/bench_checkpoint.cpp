// Checkpoint-path microbenchmarks (google-benchmark): full-baseline vs delta
// frame encoding at controlled dirty fractions, decode+apply on the holder
// side, and the CRC-32 primitive itself. Byte counters accompany the timings
// so run_bench.sh can report the delta/full size ratio directly. The /3072
// rows and BM_EmitSubChunkState are the deployments' save: a state of about
// 3 KiB, under one 4096-byte chunk, rewritten between saves.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/backup.hpp"
#include "core/checkpoint.hpp"
#include "serial/checksum.hpp"
#include "serial/serial.hpp"
#include "support/rng.hpp"

namespace {

using namespace jacepp;
using core::checkpoint::CheckpointPolicy;
using core::checkpoint::DeltaEncoder;
using core::checkpoint::DirtyRanges;
using serial::Bytes;

Bytes random_state(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes state(size);
  for (auto& b : state) b = static_cast<std::uint8_t>(rng.next_u64());
  return state;
}

/// Rewrite `percent`% of the chunks (spread evenly) and return honest hints.
DirtyRanges dirty_fraction(Bytes& state, std::size_t chunk_size, int percent,
                           std::uint64_t salt) {
  DirtyRanges d;
  const std::size_t chunks = (state.size() + chunk_size - 1) / chunk_size;
  const std::size_t stride = percent > 0 ? std::max<std::size_t>(1, 100 / percent) : chunks;
  for (std::size_t c = 0; c < chunks; c += stride) {
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(state.size(), lo + chunk_size);
    for (std::size_t i = lo; i < hi; ++i) {
      state[i] = static_cast<std::uint8_t>(state[i] + 1 + salt);
    }
    d.mark(lo, hi);
  }
  return d;
}

void BM_Crc32(benchmark::State& state) {
  const Bytes data = random_state(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serial::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32)->Arg(3 << 10)->Arg(4 << 10)->Arg(256 << 10);

void BM_EncodeFullFrame(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const Bytes st = random_state(size, 2);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const Bytes frame = core::checkpoint::encode_full_frame(1, 4096, st);
    bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
  }
  state.counters["frame_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_EncodeFullFrame)->Arg(64 << 10)->Arg(1 << 20);

/// Holder-side ingest of one full frame: both CRC checks and the state copy.
void BM_DecodeFullFrame(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const Bytes frame =
      core::checkpoint::encode_full_frame(1, 4096, random_state(size, 5));
  for (auto _ : state) {
    auto decoded = core::checkpoint::decode_frame(frame);
    benchmark::DoNotOptimize(decoded->full_state.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_DecodeFullFrame)->Arg(3 << 10);

/// The fig7-churn save: a 3200-byte state (one short chunk of 4096) fully
/// rewritten before each save, round-robin over 20 backup peers. Every save
/// goes out as a full frame.
void BM_EmitSubChunkState(benchmark::State& state) {
  constexpr std::size_t kSize = 3200;
  constexpr std::size_t kHolders = 20;
  CheckpointPolicy policy;
  policy.chunk_size = 4096;
  DeltaEncoder encoder(policy, kHolders);
  Bytes st = random_state(kSize, 6);
  std::size_t bytes = 0;
  std::uint64_t salt = 0;
  for (auto _ : state) {
    const auto hints = dirty_fraction(st, policy.chunk_size, 100, ++salt);
    const auto emitted = encoder.emit(salt % kHolders, st, hints);
    bytes = emitted.frame.size();
    benchmark::DoNotOptimize(emitted.frame.data());
  }
  state.counters["frame_bytes"] = static_cast<double>(bytes);
  state.counters["deltas"] = static_cast<double>(encoder.deltas_emitted());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSize));
}
BENCHMARK(BM_EmitSubChunkState);

/// Steady-state delta emission: each iteration re-dirties `range(1)`% of the
/// chunks and emits through a warm DeltaEncoder (memcmp sweep + encode).
void BM_EncodeDeltaFrame(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const int percent = static_cast<int>(state.range(1));
  CheckpointPolicy policy;
  policy.chunk_size = 4096;
  policy.rebase_every = 0xFFFFFFFF;     // keep the chain on deltas
  policy.chain_byte_budget = ~0ull;
  DeltaEncoder encoder(policy, 1);
  Bytes st = random_state(size, 3);
  (void)encoder.emit(0, st, std::nullopt);  // baseline

  std::size_t bytes = 0;
  std::uint64_t salt = 0;
  for (auto _ : state) {
    const auto hints = dirty_fraction(st, policy.chunk_size, percent, ++salt);
    const auto emitted = encoder.emit(0, st, hints);
    bytes = emitted.frame.size();
    benchmark::DoNotOptimize(emitted.frame.data());
  }
  state.counters["frame_bytes"] = static_cast<double>(bytes);
  state.counters["full_bytes"] =
      static_cast<double>(core::checkpoint::encode_full_frame(1, 4096, st).size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_EncodeDeltaFrame)
    ->Args({64 << 10, 5})
    ->Args({64 << 10, 20})
    ->Args({1 << 20, 5})
    ->Args({1 << 20, 20})
    ->Args({1 << 20, 100});

/// Holder-side restore: ingest a baseline + N deltas, each written into the
/// held state on arrival, then materialize (a CRC check and a copy, so the
/// chain length should not show).
void BM_MaterializeChain(benchmark::State& state) {
  const std::size_t size = 1 << 20;
  const auto chain_len = static_cast<std::size_t>(state.range(0));
  CheckpointPolicy policy;
  policy.chunk_size = 4096;
  policy.rebase_every = 0xFFFFFFFF;
  policy.chain_byte_budget = ~0ull;
  DeltaEncoder encoder(policy, 1);
  Bytes st = random_state(size, 4);

  core::BackupStore store;
  (void)store.store_frame(1, 0, 0, encoder.emit(0, st, std::nullopt).frame);
  for (std::size_t i = 0; i < chain_len; ++i) {
    const auto hints = dirty_fraction(st, policy.chunk_size, 10, i);
    (void)store.store_frame(1, 0, i + 1, encoder.emit(0, st, hints).frame);
  }
  for (auto _ : state) {
    auto rebuilt = store.materialize(1, 0);
    benchmark::DoNotOptimize(rebuilt->data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_MaterializeChain)->Arg(1)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
