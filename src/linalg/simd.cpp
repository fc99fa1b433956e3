#include "linalg/simd.hpp"

#include <atomic>

// The intrinsics paths are x86-only and rely on GCC/Clang function
// multiversioning (`__attribute__((target(...)))`) so a TU compiled for
// baseline x86-64 can still define AVX2 bodies; the dispatcher guarantees a
// body only runs after CPUID proved the ISA. Everything else falls back to
// the scalar table.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define JACEPP_SIMD_X86 1
#include <immintrin.h>
#endif

namespace jacepp::linalg::simd {

namespace {

std::atomic<bool> g_enabled{false};

// --- scalar table ------------------------------------------------------------
// Byte-for-byte the loops the call sites in vector_ops.cpp / fused.cpp run
// when the layer is off; also the portable fallback for CPUs below SSE2
// (non-x86 builds).

double dot_scalar(const double* x, const double* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void axpy_scalar(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void axpby_scalar(double alpha, const double* x, double beta, double* y,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

void scale_scalar(double* x, double alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void sub_scalar(const double* a, const double* b, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

double axpy_norm2sq_scalar(double alpha, const double* x, double* y,
                           std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
    acc += y[i] * y[i];
  }
  return acc;
}

#if defined(JACEPP_SIMD_X86)

// --- SSE2 table --------------------------------------------------------------
// 2-lane BLAS-1 kernels.

__attribute__((target("sse2"))) inline double hsum128(__m128d v) {
  // Fixed lane order: low + high.
  double lanes[2];
  _mm_storeu_pd(lanes, v);
  return lanes[0] + lanes[1];
}

__attribute__((target("sse2"))) double dot_sse2(const double* x,
                                                const double* y,
                                                std::size_t n) {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_loadu_pd(x + i), _mm_loadu_pd(y + i)));
    acc1 = _mm_add_pd(acc1,
                      _mm_mul_pd(_mm_loadu_pd(x + i + 2), _mm_loadu_pd(y + i + 2)));
  }
  if (i + 2 <= n) {
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_loadu_pd(x + i), _mm_loadu_pd(y + i)));
    i += 2;
  }
  double acc = hsum128(_mm_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

__attribute__((target("sse2"))) void axpy_sse2(double alpha, const double* x,
                                               double* y, std::size_t n) {
  const __m128d a = _mm_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d yv = _mm_loadu_pd(y + i);
    _mm_storeu_pd(y + i, _mm_add_pd(yv, _mm_mul_pd(a, _mm_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("sse2"))) void axpby_sse2(double alpha, const double* x,
                                                double beta, double* y,
                                                std::size_t n) {
  const __m128d a = _mm_set1_pd(alpha);
  const __m128d bb = _mm_set1_pd(beta);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d ax = _mm_mul_pd(a, _mm_loadu_pd(x + i));
    const __m128d by = _mm_mul_pd(bb, _mm_loadu_pd(y + i));
    _mm_storeu_pd(y + i, _mm_add_pd(ax, by));
  }
  for (; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

__attribute__((target("sse2"))) void scale_sse2(double* x, double alpha,
                                                std::size_t n) {
  const __m128d a = _mm_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(x + i, _mm_mul_pd(_mm_loadu_pd(x + i), a));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("sse2"))) void sub_sse2(const double* a, const double* b,
                                              double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i, _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

__attribute__((target("sse2"))) double axpy_norm2sq_sse2(double alpha,
                                                         const double* x,
                                                         double* y,
                                                         std::size_t n) {
  const __m128d a = _mm_set1_pd(alpha);
  __m128d acc = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d yv =
        _mm_add_pd(_mm_loadu_pd(y + i), _mm_mul_pd(a, _mm_loadu_pd(x + i)));
    _mm_storeu_pd(y + i, yv);
    acc = _mm_add_pd(acc, _mm_mul_pd(yv, yv));
  }
  double partial = hsum128(acc);
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
    partial += y[i] * y[i];
  }
  return partial;
}

// --- AVX2 table --------------------------------------------------------------

__attribute__((target("avx2"))) inline double hsum256(__m256d v) {
  // Fixed lane order: ((l0 + l1) + l2) + l3 — deterministic for a given input.
  double lanes[4];
  _mm256_storeu_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

__attribute__((target("avx2"))) double dot_avx2(const double* x,
                                                const double* y,
                                                std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(x + i + 4),
                                             _mm256_loadu_pd(y + i + 4)));
  }
  if (i + 4 <= n) {
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    i += 4;
  }
  double acc = hsum256(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

__attribute__((target("avx2"))) void axpy_avx2(double alpha, const double* x,
                                               double* y, std::size_t n) {
  const __m256d a = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yv = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(yv, _mm256_mul_pd(a, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void axpby_avx2(double alpha, const double* x,
                                                double beta, double* y,
                                                std::size_t n) {
  const __m256d a = _mm256_set1_pd(alpha);
  const __m256d bb = _mm256_set1_pd(beta);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ax = _mm256_mul_pd(a, _mm256_loadu_pd(x + i));
    const __m256d by = _mm256_mul_pd(bb, _mm256_loadu_pd(y + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(ax, by));
  }
  for (; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

__attribute__((target("avx2"))) void scale_avx2(double* x, double alpha,
                                                std::size_t n) {
  const __m256d a = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), a));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx2"))) void sub_avx2(const double* a, const double* b,
                                              double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

__attribute__((target("avx2"))) double axpy_norm2sq_avx2(double alpha,
                                                         const double* x,
                                                         double* y,
                                                         std::size_t n) {
  const __m256d a = _mm256_set1_pd(alpha);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yv = _mm256_add_pd(_mm256_loadu_pd(y + i),
                                     _mm256_mul_pd(a, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(y + i, yv);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(yv, yv));
  }
  double partial = hsum256(acc);
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
    partial += y[i] * y[i];
  }
  return partial;
}

#endif  // JACEPP_SIMD_X86

// --- dispatch ---------------------------------------------------------------

struct Ops {
  double (*dot)(const double*, const double*, std::size_t);
  void (*axpy)(double, const double*, double*, std::size_t);
  void (*axpby)(double, const double*, double, double*, std::size_t);
  void (*scale)(double*, double, std::size_t);
  void (*sub)(const double*, const double*, double*, std::size_t);
  double (*axpy_norm2sq)(double, const double*, double*, std::size_t);
};

constexpr Ops kScalarOps = {
    dot_scalar, axpy_scalar, axpby_scalar,
    scale_scalar, sub_scalar, axpy_norm2sq_scalar,
};

#if defined(JACEPP_SIMD_X86)
constexpr Ops kSse2Ops = {
    dot_sse2, axpy_sse2, axpby_sse2,
    scale_sse2, sub_sse2, axpy_norm2sq_sse2,
};

constexpr Ops kAvx2Ops = {
    dot_avx2, axpy_avx2, axpby_avx2,
    scale_avx2, sub_avx2, axpy_norm2sq_avx2,
};
#endif

const Ops& ops_for(Level level) {
#if defined(JACEPP_SIMD_X86)
  switch (level) {
    case Level::avx2:
      return kAvx2Ops;
    case Level::sse2:
      return kSse2Ops;
    case Level::scalar:
      break;
  }
#else
  (void)level;
#endif
  return kScalarOps;
}

const Ops& active_ops() { return ops_for(active_level()); }

}  // namespace

Level detected_level() {
#if defined(JACEPP_SIMD_X86)
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

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_release); }

bool enabled() { return g_enabled.load(std::memory_order_acquire); }

Level active_level() { return enabled() ? detected_level() : Level::scalar; }

bool active() { return active_level() != Level::scalar; }

std::size_t lane_width(Level level) {
  switch (level) {
    case Level::avx2:
      return 4;
    case Level::sse2:
      return 2;
    case Level::scalar:
      break;
  }
  return 1;
}

double dot(const double* x, const double* y, std::size_t n) {
  return active_ops().dot(x, y, n);
}

double norm2sq(const double* x, std::size_t n) {
  return active_ops().dot(x, x, n);
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
  active_ops().axpy(alpha, x, y, n);
}

void axpby(double alpha, const double* x, double beta, double* y,
           std::size_t n) {
  active_ops().axpby(alpha, x, beta, y, n);
}

void scale(double* x, double alpha, std::size_t n) {
  active_ops().scale(x, alpha, n);
}

void sub(const double* a, const double* b, double* out, std::size_t n) {
  active_ops().sub(a, b, out, n);
}

double axpy_norm2sq(double alpha, const double* x, double* y, std::size_t n) {
  return active_ops().axpy_norm2sq(alpha, x, y, n);
}

}  // namespace jacepp::linalg::simd
