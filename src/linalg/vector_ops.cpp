#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace jacepp::linalg {

void axpy(double alpha, const Vector& x, Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  const double* xs = x.data();
  double* ys = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) ys[i] += alpha * xs[i];
}

void axpby(double alpha, const Vector& x, double beta, Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  const double* xs = x.data();
  double* ys = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) ys[i] = alpha * xs[i] + beta * ys[i];
}

double dot(const Vector& x, const Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  const double* xs = x.data();
  const double* ys = y.data();
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += xs[i] * ys[i];
  return acc;
}

double norm2(const Vector& x) { return std::sqrt(dot(x, x)); }

double norm_inf(const Vector& x) {
  double m = 0.0;
  for (const double v : x) m = std::max(m, std::fabs(v));
  return m;
}

double distance2(const Vector& x, const Vector& y) {
  JACEPP_ASSERT(x.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    acc += d * d;
  }
  return std::sqrt(acc);
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
