// Standalone (single-process) multisplitting engine.
//
// This is the mathematical core of the paper stripped of all networking: a
// block-Jacobi multisplitting of A x = b with an inner sparse CG per block
// (paper §6), runnable either synchronously or under a bounded-staleness
// asynchronous model where each block may read out-of-date neighbour iterates.
//
// The P2P runtime (core::Task + poisson::) executes the same numerics under
// real message passing; this engine exists so the convergence theory can be
// validated in isolation (tests) and so ablations can sweep the async model
// cheaply (bench).
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/csr.hpp"
#include "linalg/partition.hpp"
#include "support/rng.hpp"

namespace jacepp::asynciter {

enum class IterationMode : std::uint8_t {
  Synchronous = 0,      ///< every block reads the previous round's iterates
  AsyncBoundedDelay = 1 ///< each dependency read is randomly stale (bounded)
};

struct MultisplitOptions {
  IterationMode mode = IterationMode::Synchronous;
  std::size_t max_outer_iterations = 5000;
  /// Global stop: the true relative residual ||b - A x|| / ||b|| of the
  /// freshest published iterates, checked after every round.
  double tolerance = 1e-8;
  linalg::CgOptions inner;
  /// Async model: probability that a dependency read skips the freshest
  /// version, and the maximum staleness in rounds (theory requires bounded).
  double staleness_probability = 0.4;
  std::size_t max_staleness = 3;
  std::uint64_t seed = 1234;
};

struct MultisplitResult {
  bool converged = false;
  /// A synchronous run stopped above the tolerance at a fixed point: every
  /// block published exactly its previous slice, so each later round would
  /// repeat the same one.
  bool stalled = false;
  std::size_t outer_iterations = 0;
  double final_residual = 0.0;   ///< true global residual ||b - Ax|| / ||b||
  double total_inner_flops = 0.0;
  linalg::Vector x;
};

/// Run the multisplitting iteration on blocks (with any overlap already baked
/// into the RowBlock extents). Overlapped components follow restricted
/// additive Schwarz: each block solves its extended system but only its owned
/// rows are published. A run stops when the residual reaches the tolerance
/// (converged), when a synchronous round repeats the previous one element for
/// element (stalled), or at max_outer_iterations. An asynchronous run never
/// stalls: its stale reads differ from round to round.
MultisplitResult run_multisplitting(const linalg::CsrMatrix& a,
                                    const linalg::Vector& b,
                                    const std::vector<linalg::RowBlock>& blocks,
                                    const MultisplitOptions& options);

}  // namespace jacepp::asynciter
