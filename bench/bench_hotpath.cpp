// Iteration hot-path bench: the single-pass SpMV+reduction kernels (banded
// row sums on the Poisson matrix) and the one-pass CG update against the
// unfused CSR sequences — micro timings plus a CG solve end to end — with a
// bit-identity gate (memcmp over doubles) on every pair.
//
// Output: JSON on stdout (run_bench.sh captures it into BENCH_hotpath.json
// and stamps provenance); human summary on stderr. Exit 0 iff every
// bit-identity gate holds.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "linalg/cg.hpp"
#include "linalg/fused.hpp"
#include "poisson/poisson.hpp"
#include "support/flags.hpp"
#include "support/rng.hpp"

using namespace jacepp;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Average wall time of fn() over `repeats` runs (one warmup), in ns.
template <typename Fn>
double time_ns(std::size_t repeats, Fn&& fn) {
  fn();  // warmup: touch the pages
  const double start = now_ms();
  for (std::size_t i = 0; i < repeats; ++i) fn();
  return (now_ms() - start) * 1e6 / static_cast<double>(repeats);
}

bool bitwise_equal(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

linalg::Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Vector v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

struct KernelRow {
  double fused_ns = 0.0;
  double unfused_ns = 0.0;
  int passes_fused = 0;    ///< memory passes over the dominant array
  int passes_unfused = 0;
  bool bit_identical = false;  ///< fused == unfused, memcmp
};

void print_kernel_row(const char* key, const KernelRow& r, bool last) {
  std::printf(
      "      \"%s\": {\"fused_ns\": %.0f, \"unfused_ns\": %.0f, "
      "\"speedup\": %.3f, \"passes_fused\": %d, \"passes_unfused\": %d, "
      "\"bit_identical\": %s}%s\n",
      key, r.fused_ns, r.unfused_ns,
      r.fused_ns > 0.0 ? r.unfused_ns / r.fused_ns : 0.0, r.passes_fused,
      r.passes_unfused, r.bit_identical ? "true" : "false", last ? "" : ",");
}

struct FusedReport {
  std::size_t side = 0;
  std::size_t repeats = 0;
  KernelRow residual;
  KernelRow dot;
  KernelRow update;
  double cg_fused_ms = 0.0;
  double cg_unfused_ms = 0.0;
  std::size_t cg_iterations = 0;
  bool cg_bit_identical = false;
  bool ok = false;
};

FusedReport run_fused(std::size_t side, std::size_t repeats) {
  FusedReport rep;
  rep.side = side;
  rep.repeats = repeats;
  const auto a = poisson::assemble_laplacian(side);
  const std::size_t n = a.rows();
  const linalg::Vector x = random_vector(n, 1001);
  const linalg::Vector b = random_vector(n, 1002);

  // r = b - Ax, ||r||: fused single pass vs multiply + residual + norm2.
  {
    linalg::Vector r_f;
    linalg::Vector ax;
    linalg::Vector r_u;
    double nf = 0.0;
    double nu = 0.0;
    rep.residual.fused_ns = time_ns(
        repeats, [&] { nf = linalg::spmv_residual_norm2(a, x, b, r_f); });
    rep.residual.unfused_ns = time_ns(repeats, [&] {
      a.multiply(x, ax);
      linalg::residual(b, ax, r_u);
      nu = linalg::norm2(r_u);
    });
    rep.residual.passes_fused = 1;
    rep.residual.passes_unfused = 3;
    rep.residual.bit_identical = bitwise_equal(r_f, r_u) && nf == nu;
  }

  // y = Ax, <x,y>: fused vs multiply + dot.
  {
    linalg::Vector y_f;
    linalg::Vector y_u;
    double df = 0.0;
    double du = 0.0;
    rep.dot.fused_ns =
        time_ns(repeats, [&] { df = linalg::spmv_dot(a, x, y_f); });
    rep.dot.unfused_ns = time_ns(repeats, [&] {
      a.multiply(x, y_u);
      du = linalg::dot(x, y_u);
    });
    rep.dot.passes_fused = 1;
    rep.dot.passes_unfused = 2;
    rep.dot.bit_identical = bitwise_equal(y_f, y_u) && df == du;
  }

  // The CG update x += alpha p, r -= alpha Ap and its Σ r²: fused vs
  // axpy + axpy + dot. The mutation accumulates, but both arms run the same
  // count so the timing comparison stays fair; the bit-identity check uses
  // fresh copies.
  {
    const linalg::Vector p = random_vector(n, 1003);
    const linalg::Vector ap = random_vector(n, 1004);
    linalg::Vector x_f = x;
    linalg::Vector r_f = b;
    linalg::Vector x_u = x;
    linalg::Vector r_u = b;
    double sf = 0.0;
    double su = 0.0;
    rep.update.fused_ns = time_ns(
        repeats, [&] { sf = linalg::cg_update(1e-6, p, ap, x_f, r_f); });
    rep.update.unfused_ns = time_ns(repeats, [&] {
      linalg::axpy(1e-6, p, x_u);
      linalg::axpy(-1e-6, ap, r_u);
      su = linalg::dot(r_u, r_u);
    });
    (void)sf;
    (void)su;
    x_f = x_u = x;
    r_f = r_u = b;
    const double one_f = linalg::cg_update(0.5, p, ap, x_f, r_f);
    linalg::axpy(0.5, p, x_u);
    linalg::axpy(-0.5, ap, r_u);
    const double one_u = linalg::dot(r_u, r_u);
    rep.update.passes_fused = 1;
    rep.update.passes_unfused = 3;
    rep.update.bit_identical = bitwise_equal(x_f, x_u) &&
                               bitwise_equal(r_f, r_u) && one_f == one_u;
  }

  // CG end-to-end: same matrix, zero start, fixed tolerance.
  {
    linalg::CgOptions opt;
    opt.tolerance = 1e-8;
    opt.max_iterations = 10 * n;
    linalg::Vector x_f;
    linalg::Vector x_u;
    linalg::CgResult res_f;
    linalg::CgResult res_u;
    opt.fused = true;
    rep.cg_fused_ms = time_ns(3, [&] {
                        x_f.assign(n, 0.0);
                        res_f = linalg::conjugate_gradient(a, b, x_f, opt);
                      }) /
                      1e6;
    opt.fused = false;
    rep.cg_unfused_ms = time_ns(3, [&] {
                          x_u.assign(n, 0.0);
                          res_u = linalg::conjugate_gradient(a, b, x_u, opt);
                        }) /
                        1e6;
    rep.cg_iterations = res_f.iterations;
    rep.cg_bit_identical = bitwise_equal(x_f, x_u) &&
                           res_f.iterations == res_u.iterations &&
                           res_f.residual_norm == res_u.residual_norm;
  }

  rep.ok = rep.residual.bit_identical && rep.dot.bit_identical &&
           rep.update.bit_identical && rep.cg_bit_identical;
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("bench_hotpath",
                "Iteration hot-path bench: fused kernels and the fused CG "
                "against their unfused CSR sequences");
  auto smoke = flags.add_bool("smoke", false, "small fast run for CI");
  flags.parse(argc, argv);

  const std::size_t side = *smoke ? 64 : 160;
  const std::size_t repeats = *smoke ? 20 : 60;

  std::fprintf(stderr, "== fused kernels (side %zu) ==\n", side);
  const FusedReport fused = run_fused(side, repeats);

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_hotpath\",\n");
  std::printf("  \"smoke\": %s,\n", *smoke ? "true" : "false");
  std::printf("  \"fused\": {\n");
  std::printf("    \"grid_side\": %zu,\n", fused.side);
  std::printf("    \"repeats\": %zu,\n", fused.repeats);
  std::printf("    \"kernels\": {\n");
  print_kernel_row("spmv_residual_norm2", fused.residual, false);
  print_kernel_row("spmv_dot", fused.dot, false);
  print_kernel_row("cg_update", fused.update, true);
  std::printf("    },\n");
  std::printf("    \"cg\": {\"fused_ms\": %.3f, \"unfused_ms\": %.3f, "
              "\"speedup\": %.3f, \"iterations\": %zu, "
              "\"bit_identical\": %s},\n",
              fused.cg_fused_ms, fused.cg_unfused_ms,
              fused.cg_fused_ms > 0.0 ? fused.cg_unfused_ms / fused.cg_fused_ms
                                      : 0.0,
              fused.cg_iterations, fused.cg_bit_identical ? "true" : "false");
  std::printf("    \"ok\": %s\n", fused.ok ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"ok\": %s\n", fused.ok ? "true" : "false");
  std::printf("}\n");

  std::fprintf(stderr,
               "\nfused : residual %.0f->%.0f ns, dot %.0f->%.0f ns, "
               "update %.0f->%.0f ns, cg %.2f->%.2f ms, bit-identical %s\n",
               fused.residual.unfused_ns, fused.residual.fused_ns,
               fused.dot.unfused_ns, fused.dot.fused_ns,
               fused.update.unfused_ns, fused.update.fused_ns,
               fused.cg_unfused_ms, fused.cg_fused_ms, fused.ok ? "yes" : "NO");
  return fused.ok ? 0 : 1;
}
