#include "linalg/simd.hpp"

#include "linalg/kernels.hpp"

namespace jacepp::linalg {

// The builds' tables (kernels.cpp, one object per build).
namespace baseline {
extern const Kernels kKernels;
}  // namespace baseline
#ifdef JACEPP_LINALG_AVX2
namespace avx2 {
extern const Kernels kKernels;
}  // namespace avx2
#endif

const Kernels& baseline_kernels() { return baseline::kKernels; }

const Kernels* avx2_kernels() {
#ifdef JACEPP_LINALG_AVX2
  return &avx2::kKernels;
#else
  return nullptr;
#endif
}

namespace {

// The build every kernel call goes through. It is constant-initialized to
// the baseline build, so a call made before dynamic initialization is still
// served, and switched once at start-up when the CPU runs the AVX2 build.
const Kernels* g_kernels = &baseline::kKernels;
[[maybe_unused]] const bool g_picked = [] {
  if (avx2_kernels() != nullptr &&
      simd::detected_level() >= simd::Level::avx2) {
    g_kernels = avx2_kernels();
  }
  return true;
}();

}  // namespace

const Kernels& kernels() { return *g_kernels; }

}  // namespace jacepp::linalg

namespace jacepp::linalg::simd {

Level detected_level() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  static const Level level = [] {
    // Static initializers may run before libgcc's own CPU probe.
    __builtin_cpu_init();
    // The AVX2 build's only ISA flag is -mavx2; every extension it enables
    // (AVX, SSE4.2 and below) comes with AVX2.
    if (__builtin_cpu_supports("avx2")) return Level::avx2;
    if (__builtin_cpu_supports("sse2")) return Level::sse2;
    return Level::scalar;
  }();
  return level;
#else
  return Level::scalar;
#endif
}

const char* level_name(Level level) {
  switch (level) {
    case Level::avx2:
      return "avx2";
    case Level::sse2:
      return "sse2";
    case Level::scalar:
      break;
  }
  return "scalar";
}

Level active_level() { return kernels().level; }

}  // namespace jacepp::linalg::simd
