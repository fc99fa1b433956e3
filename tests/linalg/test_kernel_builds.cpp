// The kernel builds (linalg/kernels.hpp) against a scalar model of the one
// reduction order (lane_order.hpp): the baseline build, the AVX2 build where
// the CPU runs it, and the model agree bit for bit, so no result depends on
// the ISA. The baseline build is called directly, so every CI leg checks it
// whatever build the start-up pick chose.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/csr.hpp"
#include "linalg/kernels.hpp"
#include "linalg/simd.hpp"
#include "poisson/block_task.hpp"
#include "support/rng.hpp"

#include "lane_order.hpp"

namespace jacepp::linalg {
namespace {

/// The builds this machine runs: the baseline, and AVX2 where the target
/// has the build and the CPU the ISA.
std::vector<const Kernels*> builds() {
  std::vector<const Kernels*> out{&baseline_kernels()};
  if (avx2_kernels() != nullptr &&
      simd::detected_level() >= simd::Level::avx2) {
    out.push_back(avx2_kernels());
  }
  return out;
}

std::string name_of(const Kernels* k) { return simd::level_name(k->level); }

/// Same bits, or NaN where the model gives NaN.
::testing::AssertionResult same(double model, double got) {
  if (std::isnan(model) ? std::isnan(got)
                        : std::bit_cast<std::uint64_t>(model) ==
                              std::bit_cast<std::uint64_t>(got)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "model " << model << ", kernel " << got;
}

::testing::AssertionResult same(const Vector& model, const Vector& got) {
  if (model.size() != got.size()) {
    return ::testing::AssertionFailure() << "sizes differ";
  }
  for (std::size_t i = 0; i < model.size(); ++i) {
    if (auto r = same(model[i], got[i]); !r) return r << " at " << i;
  }
  return ::testing::AssertionSuccess();
}

/// n finite values over 60 binary orders of magnitude, so that sums depend
/// on their order, with +0.0, -0.0 and subnormals mixed in; NaN at `nan_at`
/// when it is below n.
Vector values(std::size_t n, std::uint64_t seed,
              std::size_t nan_at = std::numeric_limits<std::size_t>::max()) {
  Rng rng(seed);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::ldexp(rng.uniform(-1.0, 1.0),
                      static_cast<int>(rng.index(60)) - 30);
    if (i % 9 == 4) v[i] = -0.0;
    if (i % 11 == 6) v[i] = 0.0;
    if (i % 7 == 2) {
      v[i] = std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.index(1000)) *
             (rng.index(2) == 0 ? 1.0 : -1.0);
    }
  }
  if (nan_at < n) v[nan_at] = std::numeric_limits<double>::quiet_NaN();
  return v;
}

/// Lengths 0-67 with finite values, and with a NaN in the middle and at
/// the end.
struct Case {
  std::size_t n;
  std::size_t nan_at;
};
std::vector<Case> cases() {
  std::vector<Case> out;
  for (std::size_t n = 0; n <= 67; ++n) {
    out.push_back({n, std::numeric_limits<std::size_t>::max()});
    if (n > 0) out.push_back({n, n / 2});
    if (n > 1) out.push_back({n, n - 1});
  }
  return out;
}

TEST(KernelBuilds, Blas1ReductionsFollowTheLaneOrder) {
  for (const Case& c : cases()) {
    const std::size_t n = c.n;
    const Vector x = values(n, 100 + n, c.nan_at);
    const Vector y = values(n, 200 + n);
    const double dot_model =
        lane_order_sum(n, [&](std::size_t i) { return x[i] * y[i]; });
    const double dist_model = lane_order_sum(n, [&](std::size_t i) {
      const double d = x[i] - y[i];
      return d * d;
    });
    for (const Kernels* k : builds()) {
      SCOPED_TRACE(name_of(k) + " n=" + std::to_string(n));
      EXPECT_TRUE(same(dot_model, k->dot(x.data(), y.data(), n)));
      EXPECT_TRUE(same(dist_model, k->distance_sq(x.data(), y.data(), n)));
    }
  }
}

TEST(KernelBuilds, CgUpdateFollowsTheLaneOrder) {
  for (const Case& c : cases()) {
    const std::size_t n = c.n;
    const Vector p = values(n, 300 + n);
    const Vector ap = values(n, 400 + n, c.nan_at);
    const Vector x0 = values(n, 500 + n);
    const Vector r0 = values(n, 600 + n);
    const double alpha = 0.6180339887498949;
    Vector x_model = x0;
    Vector r_model = r0;
    for (std::size_t i = 0; i < n; ++i) {
      x_model[i] += alpha * p[i];
      r_model[i] += -alpha * ap[i];
    }
    const double sum_model = lane_order_sum(
        n, [&](std::size_t i) { return r_model[i] * r_model[i]; });
    for (const Kernels* k : builds()) {
      SCOPED_TRACE(name_of(k) + " n=" + std::to_string(n));
      Vector x = x0;
      Vector r = r0;
      EXPECT_TRUE(same(sum_model, k->cg_update(alpha, p.data(), ap.data(),
                                               x.data(), r.data(), n)));
      EXPECT_TRUE(same(x_model, x));
      EXPECT_TRUE(same(r_model, r));
    }
  }
}

/// Square n×n matrices whose band segments start at every residue mod 4,
/// every in-range diagonal stored (so the band adds no zero-fill terms and
/// NaN reaches the same rows as in CSR), and one with too many diagonals
/// for a band.
std::vector<CsrMatrix> matrices(std::size_t n) {
  std::vector<CsrMatrix> out;
  // Offsets -k, 0, +k: segments start at 0, k and n - k.
  for (std::size_t k = 1; k < n && k <= 6; ++k) {
    CsrBuilder b(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      if (r >= k) b.add(r, r - k, -0.75 - 0.001 * static_cast<double>(r));
      b.add(r, r, 3.5);
      if (r + k < n) b.add(r, r + k, -1.25);
    }
    out.push_back(b.build());
  }
  // Offsets ±k without a main diagonal: for k > n / 2 the middle rows
  // have no diagonal in range, a segment that stores nothing.
  if (n >= 3) {
    const std::size_t k = n / 2 + 1;
    CsrBuilder b(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      if (r >= k) b.add(r, r - k, 0.5);
      if (r + k < n) b.add(r, r + k, -1.5);
    }
    out.push_back(b.build());
  }
  // Eight columns a row: the CSR loop (for n >= 7 there are more than five
  // distinct diagonals).
  Rng rng(n);
  CsrBuilder b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    b.add(r, r, 4.0);
    for (int k = 0; k < 7; ++k) b.add(r, rng.index(n), rng.uniform(-1.0, 1.0));
  }
  out.push_back(b.build());
  return out;
}

/// Row r of A x with the row's products added in column order from +0.0.
double row_sum(const CsrMatrix& a, const Vector& x, std::size_t r) {
  double ax = 0.0;
  for (std::uint32_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
    ax += a.values()[k] * x[a.col_idx()[k]];
  }
  return ax;
}

TEST(KernelBuilds, SpmvReductionsFollowTheLaneOrder) {
  bool banded = false;
  bool plain = false;
  for (const Case& c : cases()) {
    const std::size_t n = c.n;
    for (const CsrMatrix& a : matrices(n)) {
      (a.band().count != 0 ? banded : plain) = true;
      const Vector x = values(n, 700 + n, c.nan_at);
      const Vector b = values(n, 800 + n);
      Vector ax(n);
      Vector res(n);
      for (std::size_t r = 0; r < n; ++r) {
        ax[r] = row_sum(a, x, r);
        res[r] = b[r] - ax[r];
      }
      const double dot_model =
          lane_order_sum(n, [&](std::size_t r) { return x[r] * ax[r]; });
      const double res_model =
          lane_order_sum(n, [&](std::size_t r) { return res[r] * res[r]; });
      const MatrixView view = view_of(a);
      for (const Kernels* k : builds()) {
        SCOPED_TRACE(name_of(k) + " n=" + std::to_string(n) + " band " +
                     std::to_string(a.band().count));
        Vector y(n);
        EXPECT_TRUE(same(dot_model, k->spmv_dot(view, x.data(), y.data())));
        EXPECT_TRUE(same(ax, y));
        EXPECT_TRUE(same(res_model,
                         k->spmv_residual(view, x.data(), b.data(), y.data())));
        EXPECT_TRUE(same(res, y));
      }
    }
  }
  EXPECT_TRUE(banded && plain);
}

TEST(KernelBuilds, CgSolvesAreBitIdenticalAcrossBuilds) {
  // The whole solve on a solve-large block, fused and unfused: every build
  // gives the same iterations, residual and solution bits.
  const CsrMatrix a = poisson::assemble_local_laplacian(160, 0, 20 * 160);
  Rng rng(11);
  Vector b(a.rows());
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  for (const bool fused : {true, false}) {
    CgOptions options;
    options.tolerance = 1e-8;
    options.max_iterations = 400;
    options.fused = fused;
    Vector x_base;
    const CgResult base =
        conjugate_gradient(baseline_kernels(), a, b, x_base, options);
    for (const Kernels* k : builds()) {
      SCOPED_TRACE(name_of(k) + (fused ? " fused" : " unfused"));
      Vector x;
      const CgResult got = conjugate_gradient(*k, a, b, x, options);
      EXPECT_EQ(got.iterations, base.iterations);
      EXPECT_TRUE(same(base.residual_norm, got.residual_norm));
      EXPECT_TRUE(same(x_base, x));
    }
  }
}

}  // namespace
}  // namespace jacepp::linalg
