// CPU vector-ISA detection and the kernel build in use (DESIGN.md §10).
//
// The kernels conjugate_gradient runs are built twice from one source
// (linalg/kernels.hpp): for the baseline ISA and, on x86-64, with -mavx2.
// One build is picked once at start-up from detected_level(); no knob picks
// it and no call branches on it. Both builds run the same floating-point
// operations in the same order: elementwise work is exact per element, and
// every reduction folds four lanes (lane j takes the rows r with r % 4 == j,
// in row order; then (l0 + l2) + (l1 + l3)) whether a lane sits in a 32-byte
// AVX register or a 16-byte SSE2 one. So a result never depends on which
// build ran. perfbench's summary prints the detected and active levels.
#pragma once

namespace jacepp::linalg::simd {

/// Vector ISA level, ordered by width.
enum class Level : int { scalar = 0, sse2 = 1, avx2 = 2 };

/// Widest level the executing CPU supports (CPUID, evaluated once).
[[nodiscard]] Level detected_level();

/// Lowercase name for reports and bench metadata: "scalar", "sse2", "avx2".
[[nodiscard]] const char* level_name(Level level);

/// The level of the kernel build picked at start-up: avx2 on a CPU with
/// AVX2, else the baseline build's (sse2 on x86-64).
[[nodiscard]] Level active_level();

}  // namespace jacepp::linalg::simd
