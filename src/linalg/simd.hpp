// CPU vector-ISA detection for reports and bench metadata (DESIGN.md §10).
//
// No kernel dispatches on it: every linalg kernel is one portable loop whose
// reduction order lives in the source, so results never depend on the CPU.
// perfbench's summary prints the detected and active levels.
#pragma once

namespace jacepp::linalg::simd {

/// Vector ISA level, ordered by width.
enum class Level : int { scalar = 0, sse2 = 1, avx2 = 2 };

/// Widest level the executing CPU supports (CPUID, evaluated once).
[[nodiscard]] Level detected_level();

/// Lowercase name for reports and bench metadata: "scalar", "sse2", "avx2".
[[nodiscard]] const char* level_name(Level level);

/// The level the kernels run at: always Level::scalar.
[[nodiscard]] Level active_level();

}  // namespace jacepp::linalg::simd
