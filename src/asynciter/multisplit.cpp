#include "asynciter/multisplit.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "linalg/fused.hpp"
#include "linalg/vector_ops.hpp"
#include "support/assert.hpp"

namespace jacepp::asynciter {

using linalg::CsrMatrix;
using linalg::RowBlock;
using linalg::Vector;

namespace {

/// Per-block precomputed pieces and published-version history.
struct BlockState {
  CsrMatrix local;                 ///< A restricted to extended rows & columns
  Vector b_ext;                    ///< b restricted to extended rows
  Vector x_ext;                    ///< current local extended iterate (warm start)
  std::deque<Vector> history;      ///< published owned slices, newest first
};

}  // namespace

MultisplitResult run_multisplitting(const CsrMatrix& a, const Vector& b,
                                    const std::vector<RowBlock>& blocks,
                                    const MultisplitOptions& options) {
  const std::size_t n = a.rows();
  JACEPP_ASSERT(a.cols() == n && b.size() == n);
  JACEPP_ASSERT(!blocks.empty());

  Rng rng(options.seed);
  MultisplitResult result;

  std::vector<BlockState> states(blocks.size());
  for (std::size_t p = 0; p < blocks.size(); ++p) {
    const RowBlock& blk = blocks[p];
    BlockState& st = states[p];
    st.local = a.block(blk.ext_lo, blk.ext_hi, blk.ext_lo, blk.ext_hi);
    st.b_ext.assign(b.begin() + static_cast<std::ptrdiff_t>(blk.ext_lo),
                    b.begin() + static_cast<std::ptrdiff_t>(blk.ext_hi));
    st.x_ext.assign(blk.ext_size(), 0.0);
    st.history.push_front(Vector(blk.owned_size(), 0.0));
  }

  const std::size_t history_cap = options.max_staleness + 1;
  const double b_norm = linalg::norm2(b);
  const double residual_scale = b_norm > 0.0 ? b_norm : 1.0;

  Vector x_read(n, 0.0);
  Vector x_latest(n, 0.0);
  Vector ax(n), rhs, coupling;

  for (std::size_t outer = 0; outer < options.max_outer_iterations; ++outer) {
    // Whether every block publishes exactly its previous slice this round.
    bool repeated = true;
    // Each block performs one update this round. In async mode each block
    // reads a randomly stale published version of every OTHER block.
    for (std::size_t p = 0; p < blocks.size(); ++p) {
      const RowBlock& blk = blocks[p];
      BlockState& st = states[p];

      // Assemble the read vector this block sees.
      for (std::size_t q = 0; q < blocks.size(); ++q) {
        const BlockState& src = states[q];
        std::size_t age = 0;
        if (q != p && options.mode == IterationMode::AsyncBoundedDelay &&
            options.max_staleness > 0 && rng.chance(options.staleness_probability)) {
          age = 1 + rng.index(options.max_staleness);
        }
        age = std::min(age, src.history.size() - 1);
        const Vector& slice = src.history[age];
        std::copy(slice.begin(), slice.end(),
                  x_read.begin() + static_cast<std::ptrdiff_t>(blocks[q].owned_lo));
      }

      // rhs = b_ext - A[ext rows, cols outside ext] * x_read.
      coupling.assign(blk.ext_size(), 0.0);
      a.off_block_multiply_add(blk.ext_lo, blk.ext_hi, blk.ext_lo, blk.ext_hi,
                               x_read, coupling);
      rhs = st.b_ext;
      linalg::axpy(-1.0, coupling, rhs);  // rhs -= coupling, exact

      // Warm-start the extended iterate from the read vector and solve.
      std::copy(x_read.begin() + static_cast<std::ptrdiff_t>(blk.ext_lo),
                x_read.begin() + static_cast<std::ptrdiff_t>(blk.ext_hi),
                st.x_ext.begin());
      const auto cg = linalg::conjugate_gradient(st.local, rhs, st.x_ext,
                                                 options.inner);
      result.total_inner_flops += cg.flops;

      // Publish owned rows only (restricted additive Schwarz).
      Vector owned(st.x_ext.begin() + static_cast<std::ptrdiff_t>(blk.owned_offset()),
                   st.x_ext.begin() +
                       static_cast<std::ptrdiff_t>(blk.owned_offset() + blk.owned_size()));
      repeated = repeated && owned == st.history.front();
      st.history.push_front(std::move(owned));
      if (st.history.size() > history_cap) st.history.pop_back();
    }
    ++result.outer_iterations;

    // True global residual on the freshest iterates.
    for (std::size_t q = 0; q < blocks.size(); ++q) {
      const Vector& slice = states[q].history.front();
      std::copy(slice.begin(), slice.end(),
                x_latest.begin() + static_cast<std::ptrdiff_t>(blocks[q].owned_lo));
    }
    // Fused single pass: ax reused as the residual scratch.
    result.final_residual =
        linalg::spmv_residual_norm2(a, x_latest, b, ax) / residual_scale;
    if (result.final_residual <= options.tolerance) {
      result.converged = true;
      break;
    }
    // A synchronous block's update depends only on the vector it reads, so a
    // round that changed no slice leaves the next round the same vector to
    // read: every later round would repeat this one.
    if (options.mode == IterationMode::Synchronous && repeated) {
      result.stalled = true;
      break;
    }
  }

  result.x = std::move(x_latest);
  return result;
}

}  // namespace jacepp::asynciter
