// Checkpoint-path microbenchmarks (google-benchmark): the CRC-32 primitive,
// whole-state frame encoding, the holder's decode of a frame, and the
// holder's materialize before a restore. The 3 KiB rows are the
// deployments' save: a Poisson task state of about 3 KiB.
//
// BM_Crc32 runs the kernel picked at start-up (the JSON context's
// crc32_kernel); BM_Crc32Portable runs slicing-by-8 on the same bytes, so
// the pair measures the fold where the CPU has it.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/backup.hpp"
#include "core/checkpoint.hpp"
#include "serial/checksum.hpp"
#include "serial/serial.hpp"
#include "support/rng.hpp"

namespace {

using namespace jacepp;
using serial::Bytes;

Bytes random_state(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes state(size);
  for (auto& b : state) b = static_cast<std::uint8_t>(rng.next_u64());
  return state;
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

void BM_Crc32Portable(benchmark::State& state) {
  const Bytes data = random_state(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serial::crc32_portable(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32Portable)->Arg(3 << 10)->Arg(4 << 10)->Arg(256 << 10);

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
BENCHMARK(BM_EncodeFullFrame)->Arg(3 << 10)->Arg(64 << 10)->Arg(1 << 20);

/// Holder-side ingest of one frame: both CRC checks and the state copy.
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
BENCHMARK(BM_DecodeFullFrame)->Arg(3 << 10)->Arg(1 << 20);

/// Holder-side restore: the held state's CRC check and a copy.
void BM_Materialize(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  core::BackupStore store;
  (void)store.store_frame(
      1, 0, 1, core::checkpoint::encode_full_frame(1, 4096, random_state(size, 4)));
  for (auto _ : state) {
    auto rebuilt = store.materialize(1, 0);
    benchmark::DoNotOptimize(rebuilt->data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Materialize)->Arg(3 << 10)->Arg(1 << 20);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "crc32_kernel",
      serial::crc32_kernel_name(serial::crc32_active_kernel()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
