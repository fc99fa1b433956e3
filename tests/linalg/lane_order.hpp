// A scalar model of the one reduction order every linalg reduction folds in
// (DESIGN.md §10), written independently of linalg/kernels.cpp: tests check
// the kernels against it bit for bit.
#pragma once

#include <cstddef>

namespace jacepp::linalg {

/// Σ term(r) over rows [begin, end): lane j adds the terms of the rows
/// r with r % 4 == j in row order, from +0.0, and the lanes combine as
/// (l0 + l2) + (l1 + l3).
template <typename Term>
double lane_order_sum(std::size_t begin, std::size_t end, Term term) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t r = begin; r < end; ++r) lane[r % 4] += term(r);
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

template <typename Term>
double lane_order_sum(std::size_t n, Term term) {
  return lane_order_sum(0, n, term);
}

}  // namespace jacepp::linalg
