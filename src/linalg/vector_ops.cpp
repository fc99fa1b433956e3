#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"
#include "support/assert.hpp"

namespace jacepp::linalg {

void axpy(double alpha, const Vector& x, Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  kernels().axpy(alpha, x.data(), y.data(), x.size());
}

void axpby(double alpha, const Vector& x, double beta, Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  kernels().axpby(alpha, x.data(), beta, y.data(), x.size());
}

double dot(const Vector& x, const Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  return kernels().dot(x.data(), y.data(), x.size());
}

double norm2(const Vector& x) { return std::sqrt(dot(x, x)); }

double norm_inf(const Vector& x) {
  double m = 0.0;
  for (const double v : x) m = std::max(m, std::fabs(v));
  return m;
}

double distance2(const Vector& x, const Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  return std::sqrt(kernels().distance_sq(x.data(), y.data(), x.size()));
}

double distance_inf(const Vector& x, const Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  double m = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    m = std::max(m, std::fabs(x[i] - y[i]));
  }
  return m;
}

void scale(Vector& x, double alpha) {
  for (double& v : x) v *= alpha;
}

void fill(Vector& x, double value) { std::fill(x.begin(), x.end(), value); }

void residual(const Vector& b, const Vector& ax, Vector& r) {
  JACEPP_ASSERT(b.size() == ax.size());
  r.resize(b.size());
  const double* bs = b.data();
  const double* as = ax.data();
  double* rs = r.data();
  for (std::size_t i = 0; i < b.size(); ++i) rs[i] = bs[i] - as[i];
}

}  // namespace jacepp::linalg
