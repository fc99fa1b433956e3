#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#include "linalg/simd.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace jacepp::linalg {

namespace {

/// Kernel grain resolved from the environment once (like JACEPP_THREADS):
/// JACEPP_GRAIN, clamped to [1, 1 << 24]; 0 / unset / garbage falls back to
/// the built-in default.
std::size_t env_kernel_grain() {
  static const std::size_t parsed = [] {
    const char* env = std::getenv("JACEPP_GRAIN");
    if (env == nullptr || *env == '\0') return std::size_t{0};
    char* parse_end = nullptr;
    const unsigned long value = std::strtoul(env, &parse_end, 10);
    if (parse_end == env || value == 0) return std::size_t{0};
    return std::min<std::size_t>(value, std::size_t{1} << 24);
  }();
  return parsed;
}

std::atomic<std::size_t> g_grain_override{0};

}  // namespace

std::size_t vector_op_grain() {
  const std::size_t override_grain = g_grain_override.load(std::memory_order_acquire);
  if (override_grain != 0) return override_grain;
  const std::size_t env = env_kernel_grain();
  return env != 0 ? env : kVectorOpGrain;
}

std::size_t spmv_row_grain() {
  return std::max<std::size_t>(vector_op_grain() / 4, 1);
}

void set_kernel_grain(std::size_t grain) {
  g_grain_override.store(std::min<std::size_t>(grain, std::size_t{1} << 24),
                         std::memory_order_release);
}

void axpy(double alpha, const Vector& x, Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  const double* xs = x.data();
  double* ys = y.data();
  // The simd decision is latched before the parallel region so one kernel
  // call never mixes paths (set_enabled happens at deployment build time).
  const bool vec = simd::active();
  compute_pool().parallel_for(0, x.size(), vector_op_grain(),
                              [=](std::size_t lo, std::size_t hi) {
                                if (vec) {
                                  simd::axpy(alpha, xs + lo, ys + lo, hi - lo);
                                  return;
                                }
                                for (std::size_t i = lo; i < hi; ++i) {
                                  ys[i] += alpha * xs[i];
                                }
                              });
}

void axpby(double alpha, const Vector& x, double beta, Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  const double* xs = x.data();
  double* ys = y.data();
  const bool vec = simd::active();
  compute_pool().parallel_for(0, x.size(), vector_op_grain(),
                              [=](std::size_t lo, std::size_t hi) {
                                if (vec) {
                                  simd::axpby(alpha, xs + lo, beta, ys + lo,
                                              hi - lo);
                                  return;
                                }
                                for (std::size_t i = lo; i < hi; ++i) {
                                  ys[i] = alpha * xs[i] + beta * ys[i];
                                }
                              });
}

double dot(const Vector& x, const Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  const double* xs = x.data();
  const double* ys = y.data();
  const bool vec = simd::active();
  return compute_pool().parallel_reduce(
      0, x.size(), vector_op_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        if (vec) return simd::dot(xs + lo, ys + lo, hi - lo);
        double acc = 0.0;
        for (std::size_t i = lo; i < hi; ++i) acc += xs[i] * ys[i];
        return acc;
      },
      [](double a, double b) { return a + b; });
}

double norm2(const Vector& x) { return std::sqrt(dot(x, x)); }

double norm_inf(const Vector& x) {
  const double* xs = x.data();
  return compute_pool().parallel_reduce(
      0, x.size(), vector_op_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        double m = 0.0;
        for (std::size_t i = lo; i < hi; ++i) m = std::max(m, std::fabs(xs[i]));
        return m;
      },
      [](double a, double b) { return std::max(a, b); });
}

double distance2(const Vector& x, const Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  // Max-norm and distance kernels stay scalar: they live on convergence
  // checks, not the per-iteration hot path.
  const double* xs = x.data();
  const double* ys = y.data();
  const double acc = compute_pool().parallel_reduce(
      0, x.size(), vector_op_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        double partial = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          const double d = xs[i] - ys[i];
          partial += d * d;
        }
        return partial;
      },
      [](double a, double b) { return a + b; });
  return std::sqrt(acc);
}

double distance_inf(const Vector& x, const Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  const double* xs = x.data();
  const double* ys = y.data();
  return compute_pool().parallel_reduce(
      0, x.size(), vector_op_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        double m = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          m = std::max(m, std::fabs(xs[i] - ys[i]));
        }
        return m;
      },
      [](double a, double b) { return std::max(a, b); });
}

void scale(Vector& x, double alpha) {
  double* xs = x.data();
  const bool vec = simd::active();
  compute_pool().parallel_for(0, x.size(), vector_op_grain(),
                              [=](std::size_t lo, std::size_t hi) {
                                if (vec) {
                                  simd::scale(xs + lo, alpha, hi - lo);
                                  return;
                                }
                                for (std::size_t i = lo; i < hi; ++i) xs[i] *= alpha;
                              });
}

void fill(Vector& x, double value) {
  double* xs = x.data();
  compute_pool().parallel_for(0, x.size(), vector_op_grain(),
                              [=](std::size_t lo, std::size_t hi) {
                                for (std::size_t i = lo; i < hi; ++i) xs[i] = value;
                              });
}

void residual(const Vector& b, const Vector& ax, Vector& r) {
  JACEPP_ASSERT(b.size() == ax.size());
  r.resize(b.size());
  const double* bs = b.data();
  const double* as = ax.data();
  double* rs = r.data();
  const bool vec = simd::active();
  compute_pool().parallel_for(0, b.size(), vector_op_grain(),
                              [=](std::size_t lo, std::size_t hi) {
                                if (vec) {
                                  simd::sub(bs + lo, as + lo, rs + lo, hi - lo);
                                  return;
                                }
                                for (std::size_t i = lo; i < hi; ++i) {
                                  rs[i] = bs[i] - as[i];
                                }
                              });
}

}  // namespace jacepp::linalg
