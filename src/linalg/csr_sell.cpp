#include "linalg/csr_sell.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "linalg/simd.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define JACEPP_SELL_X86 1
#include <immintrin.h>
#endif

namespace jacepp::linalg {

namespace {

std::atomic<bool> g_sell_enabled{false};

constexpr std::size_t kH = SellMatrix::kSliceHeight;

/// Raw view passed to the slice kernels (scalar and AVX2 share it).
struct SellView {
  const std::uint32_t* slice_ptr;
  const std::uint32_t* col_idx;
  const double* values;
  std::size_t rows;
};

/// Rows covered by slice s: [kH * s, kH * s + lanes).
std::size_t lanes_of(const SellView& m, std::size_t s) {
  const std::size_t row0 = kH * s;
  return m.rows - row0 < kH ? m.rows - row0 : kH;
}

// --- scalar slice kernels ----------------------------------------------------
// Same padded iteration space as the vector path (k-major per lane), so the
// per-row sums match the AVX2 lanes exactly; only the cross-row reduction
// order differs between the two (documented in the header).

void multiply_slices_scalar(const SellView& m, const double* x, double* y,
                            std::size_t s_lo, std::size_t s_hi) {
  for (std::size_t s = s_lo; s < s_hi; ++s) {
    const std::uint32_t off = m.slice_ptr[s];
    const std::uint32_t len =
        (m.slice_ptr[s + 1] - off) / static_cast<std::uint32_t>(kH);
    const std::size_t lanes = lanes_of(m, s);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      double acc = 0.0;
      for (std::uint32_t k = 0; k < len; ++k) {
        const std::size_t e = off + static_cast<std::size_t>(k) * kH + lane;
        acc += m.values[e] * x[m.col_idx[e]];
      }
      y[kH * s + lane] = acc;
    }
  }
}

double residual_slices_scalar(const SellView& m, const double* x,
                              const double* b, double* r, std::size_t s_lo,
                              std::size_t s_hi) {
  double partial = 0.0;
  for (std::size_t s = s_lo; s < s_hi; ++s) {
    const std::uint32_t off = m.slice_ptr[s];
    const std::uint32_t len =
        (m.slice_ptr[s + 1] - off) / static_cast<std::uint32_t>(kH);
    const std::size_t lanes = lanes_of(m, s);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      double acc = 0.0;
      for (std::uint32_t k = 0; k < len; ++k) {
        const std::size_t e = off + static_cast<std::size_t>(k) * kH + lane;
        acc += m.values[e] * x[m.col_idx[e]];
      }
      const std::size_t row = kH * s + lane;
      const double d = b[row] - acc;
      r[row] = d;
      partial += d * d;
    }
  }
  return partial;
}

double dot_slices_scalar(const SellView& m, const double* x, double* y,
                         std::size_t s_lo, std::size_t s_hi) {
  double partial = 0.0;
  for (std::size_t s = s_lo; s < s_hi; ++s) {
    const std::uint32_t off = m.slice_ptr[s];
    const std::uint32_t len =
        (m.slice_ptr[s + 1] - off) / static_cast<std::uint32_t>(kH);
    const std::size_t lanes = lanes_of(m, s);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      double acc = 0.0;
      for (std::uint32_t k = 0; k < len; ++k) {
        const std::size_t e = off + static_cast<std::size_t>(k) * kH + lane;
        acc += m.values[e] * x[m.col_idx[e]];
      }
      const std::size_t row = kH * s + lane;
      y[row] = acc;
      partial += x[row] * acc;
    }
  }
  return partial;
}

#if defined(JACEPP_SELL_X86)

// --- AVX2 slice kernels ------------------------------------------------------
// Full slices run 4 rows per register in lock-step; the (at most one) partial
// tail slice falls back to the scalar body. Value loads are aligned: every
// slice starts at an entry offset that is a multiple of 4 inside a
// 64-byte-aligned array.

__attribute__((target("avx2"))) inline double hsum256_sell(__m256d v) {
  double lanes[4];
  _mm256_storeu_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

/// Lock-step row sums of one full slice: lane i accumulates row kH*s + i.
/// The masked gather with a zeroed merge source breaks the false dependency
/// vgatherdpd carries on its destination register (the plain intrinsic lets
/// the compiler chain consecutive gathers), keeping consecutive k-steps and
/// slices independent.
__attribute__((target("avx2"))) inline __m256d slice_acc_avx2(
    const SellView& m, const double* x, std::size_t s) {
  const std::uint32_t off = m.slice_ptr[s];
  const std::uint32_t len =
      (m.slice_ptr[s + 1] - off) / static_cast<std::uint32_t>(kH);
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d acc = _mm256_setzero_pd();
  for (std::uint32_t k = 0; k < len; ++k) {
    const std::size_t e = off + static_cast<std::size_t>(k) * kH;
    const __m128i idx =
        _mm_load_si128(reinterpret_cast<const __m128i*>(m.col_idx + e));
    const __m256d xv =
        _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, idx, all, 8);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_load_pd(m.values + e), xv));
  }
  return acc;
}

__attribute__((target("avx2"))) void multiply_slices_avx2(const SellView& m,
                                                          const double* x,
                                                          double* y,
                                                          std::size_t s_lo,
                                                          std::size_t s_hi) {
  for (std::size_t s = s_lo; s < s_hi; ++s) {
    if (lanes_of(m, s) == kH) {
      _mm256_storeu_pd(y + kH * s, slice_acc_avx2(m, x, s));
    } else {
      multiply_slices_scalar(m, x, y, s, s + 1);
    }
  }
}

__attribute__((target("avx2"))) double residual_slices_avx2(
    const SellView& m, const double* x, const double* b, double* r,
    std::size_t s_lo, std::size_t s_hi) {
  double partial = 0.0;
  for (std::size_t s = s_lo; s < s_hi; ++s) {
    if (lanes_of(m, s) == kH) {
      const __m256d d =
          _mm256_sub_pd(_mm256_loadu_pd(b + kH * s), slice_acc_avx2(m, x, s));
      _mm256_storeu_pd(r + kH * s, d);
      partial += hsum256_sell(_mm256_mul_pd(d, d));
    } else {
      partial += residual_slices_scalar(m, x, b, r, s, s + 1);
    }
  }
  return partial;
}

__attribute__((target("avx2"))) double dot_slices_avx2(const SellView& m,
                                                       const double* x,
                                                       double* y,
                                                       std::size_t s_lo,
                                                       std::size_t s_hi) {
  double partial = 0.0;
  for (std::size_t s = s_lo; s < s_hi; ++s) {
    if (lanes_of(m, s) == kH) {
      const __m256d acc = slice_acc_avx2(m, x, s);
      _mm256_storeu_pd(y + kH * s, acc);
      partial += hsum256_sell(_mm256_mul_pd(_mm256_loadu_pd(x + kH * s), acc));
    } else {
      partial += dot_slices_scalar(m, x, y, s, s + 1);
    }
  }
  return partial;
}

#endif  // JACEPP_SELL_X86

bool use_avx2() {
#if defined(JACEPP_SELL_X86)
  return simd::active_level() == simd::Level::avx2;
#else
  return false;
#endif
}

/// Slices per parallel chunk: track spmv_row_grain() so a SELL chunk covers
/// the same row count as a CSR chunk.
std::size_t slice_grain() {
  const std::size_t g = spmv_row_grain() / kH;
  return g == 0 ? 1 : g;
}

}  // namespace

void set_sell_enabled(bool on) {
  g_sell_enabled.store(on, std::memory_order_release);
}

bool sell_enabled() { return g_sell_enabled.load(std::memory_order_acquire); }

SellMatrix::SellMatrix(const CsrMatrix& a)
    : rows_(a.rows()), cols_(a.cols()), nnz_(a.nnz()) {
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  const std::size_t slices = (rows_ + kH - 1) / kH;

  slice_ptr_.assign(slices + 1, 0);
  std::size_t total = 0;
  for (std::size_t s = 0; s < slices; ++s) {
    std::uint32_t len = 0;
    for (std::size_t lane = 0; lane < kH && kH * s + lane < rows_; ++lane) {
      const std::size_t r = kH * s + lane;
      len = std::max(len, row_ptr[r + 1] - row_ptr[r]);
    }
    slice_ptr_[s] = static_cast<std::uint32_t>(total);
    total += static_cast<std::size_t>(len) * kH;
  }
  slice_ptr_[slices] = static_cast<std::uint32_t>(total);

  // Padding entries: value 0.0 against column 0 — a no-op for any x.
  col_idx_.assign(total, 0);
  values_.assign(total, 0.0);
  for (std::size_t s = 0; s < slices; ++s) {
    for (std::size_t lane = 0; lane < kH && kH * s + lane < rows_; ++lane) {
      const std::size_t r = kH * s + lane;
      for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const std::size_t e =
            slice_ptr_[s] + static_cast<std::size_t>(k - row_ptr[r]) * kH + lane;
        col_idx_[e] = col_idx[k];
        values_[e] = values[k];
      }
    }
  }
}

double SellMatrix::fill_ratio() const {
  return values_.empty() ? 1.0
                         : static_cast<double>(nnz_) /
                               static_cast<double>(values_.size());
}

void SellMatrix::multiply(const Vector& x, Vector& y) const {
  JACEPP_ASSERT(x.size() == cols_);
  y.resize(rows_);
  const SellView m{slice_ptr_.data(), col_idx_.data(), values_.data(), rows_};
  const double* xs = x.data();
  double* ys = y.data();
  const bool vec = use_avx2();
  const std::size_t slices = slice_ptr_.size() - 1;
  compute_pool().parallel_for(0, slices, slice_grain(),
                              [=](std::size_t lo, std::size_t hi) {
#if defined(JACEPP_SELL_X86)
                                if (vec) {
                                  multiply_slices_avx2(m, xs, ys, lo, hi);
                                  return;
                                }
#else
                                (void)vec;
#endif
                                multiply_slices_scalar(m, xs, ys, lo, hi);
                              });
}

double SellMatrix::spmv_residual_norm2(const Vector& x, const Vector& b,
                                       Vector& r) const {
  JACEPP_ASSERT(x.size() == cols_);
  JACEPP_ASSERT(b.size() == rows_);
  r.resize(rows_);
  const SellView m{slice_ptr_.data(), col_idx_.data(), values_.data(), rows_};
  const double* xs = x.data();
  const double* bs = b.data();
  double* rs = r.data();
  const bool vec = use_avx2();
  const std::size_t slices = slice_ptr_.size() - 1;
  const double acc = compute_pool().parallel_reduce(
      0, slices, slice_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
#if defined(JACEPP_SELL_X86)
        if (vec) return residual_slices_avx2(m, xs, bs, rs, lo, hi);
#else
        (void)vec;
#endif
        return residual_slices_scalar(m, xs, bs, rs, lo, hi);
      },
      [](double a_, double b_) { return a_ + b_; });
  return std::sqrt(acc);
}

double SellMatrix::spmv_dot(const Vector& x, Vector& y) const {
  JACEPP_ASSERT(x.size() == cols_);
  JACEPP_ASSERT(rows_ == cols_);
  y.resize(rows_);
  const SellView m{slice_ptr_.data(), col_idx_.data(), values_.data(), rows_};
  const double* xs = x.data();
  double* ys = y.data();
  const bool vec = use_avx2();
  const std::size_t slices = slice_ptr_.size() - 1;
  return compute_pool().parallel_reduce(
      0, slices, slice_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
#if defined(JACEPP_SELL_X86)
        if (vec) return dot_slices_avx2(m, xs, ys, lo, hi);
#else
        (void)vec;
#endif
        return dot_slices_scalar(m, xs, ys, lo, hi);
      },
      [](double a_, double b_) { return a_ + b_; });
}

}  // namespace jacepp::linalg
