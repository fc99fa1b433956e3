#include "linalg/simd.hpp"

namespace jacepp::linalg::simd {

Level detected_level() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  static const Level level = [] {
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

Level active_level() { return Level::scalar; }

}  // namespace jacepp::linalg::simd
