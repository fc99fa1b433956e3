// The paper's application (§6): block-Jacobi multisplitting of the 2-D
// Poisson system with an inner sparse Conjugate Gradient, written against the
// jacepp Task API and registered under the program name "poisson".
//
// Decomposition: contiguous row blocks, block sizes multiples of n (one grid
// line), optionally extended by `overlap_lines` lines on each side. Per outer
// iteration each task exchanges exactly n components with its predecessor and
// successor — one grid line each, constant in the overlap, as the paper
// prescribes ("whatever the size of the overlapped components, the exchanged
// data are constant").
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/task.hpp"
#include "linalg/cg.hpp"
#include "linalg/csr.hpp"
#include "linalg/partition.hpp"
#include "serial/serial.hpp"

namespace jacepp::poisson {

/// Program arguments carried in AppDescriptor::config.
struct PoissonConfig {
  std::uint32_t n = 0;                ///< grid side; system size n²
  std::uint32_t overlap_lines = 0;    ///< overlap per side, in grid lines
  double inner_tolerance = 1e-6;      ///< inner CG relative tolerance
  std::uint32_t inner_max_iterations = 400;
  /// Right-hand side: 0 = f = 2π² sin(πx) sin(πy); 1 = manufactured discrete
  /// solution drawn from rhs_seed (b = A x*), for machine-precision checks.
  std::uint32_t rhs_kind = 0;
  std::uint64_t rhs_seed = 0;
  /// Multiplier applied to reported flops: lets the simulator emulate
  /// paper-scale per-iteration cost while computing a tractable grid.
  double work_scale = 1.0;

  JACEPP_WIRE_FIELDS(n, overlap_lines, inner_tolerance, inner_max_iterations,
                     rhs_kind, rhs_seed, work_scale)
};

/// Assemble rows [row_lo, row_hi) of the n-grid Laplacian over the SAME
/// column window, in local indices; couplings to columns outside the window
/// (the two boundary grid lines) are excluded — they enter through the rhs.
linalg::CsrMatrix assemble_local_laplacian(std::size_t n, std::size_t row_lo,
                                           std::size_t row_hi);

/// The registered task program. Name: "poisson".
class PoissonTask : public core::Task {
 public:
  static constexpr const char* kProgramName = "poisson";

  [[nodiscard]] bool init(const core::AppDescriptor& app,
                          core::TaskId task_id) override;
  double iterate() override;
  std::span<const core::OutgoingData> outgoing() override;
  [[nodiscard]] double local_error() const override {
    return state_.local_error;
  }
  [[nodiscard]] bool error_is_informative() const override {
    return last_iteration_informative_;
  }
  void on_data(core::TaskId from_task, serial::ByteView payload) override;
  [[nodiscard]] serial::Bytes checkpoint() const override;
  [[nodiscard]] bool restore(const serial::Bytes& state) override;
  [[nodiscard]] serial::Bytes final_payload() const override;
  [[nodiscard]] std::uint64_t informative_iterations() const override {
    return state_.informative_iterations;
  }

  // --- Introspection / testing ---
  [[nodiscard]] const PoissonConfig& config() const { return config_; }
  [[nodiscard]] const linalg::RowBlock& block() const { return block_; }
  [[nodiscard]] const linalg::Vector& x_ext() const { return state_.x_ext; }
  /// The right-hand side of the extended block's rows, before the
  /// neighbours' boundary lines are added.
  [[nodiscard]] const linalg::Vector& b_ext() const { return b_ext_; }
  [[nodiscard]] std::uint64_t iterations_done() const {
    return state_.iterations_done;
  }

  /// Owned slice of the current iterate (the task's published components).
  [[nodiscard]] linalg::Vector owned_slice() const;

 private:
  void build_rhs(linalg::Vector& rhs) const;

  PoissonConfig config_;
  core::TaskId task_id_ = 0;
  std::uint32_t task_count_ = 0;
  std::vector<linalg::RowBlock> blocks_;
  linalg::RowBlock block_;

  /// What checkpoint() saves and restore() brings back, in wire order.
  struct State {
    linalg::Vector x_ext;
    linalg::Vector owned_prev;
    // Latest boundary lines received (last-received-wins; see DESIGN.md).
    linalg::Vector lower_boundary;  ///< grid line just below ext_lo
    linalg::Vector upper_boundary;  ///< grid line just above ext_hi
    /// Iterations that consumed fresh boundary data (Eq. (4) diagnostics),
    /// saved with the iteration count so both count across a restore.
    std::uint64_t informative_iterations = 0;
    double local_error = 1.0;
    std::uint64_t iterations_done = 0;

    JACEPP_WIRE_FIELDS(x_ext, owned_prev, lower_boundary, upper_boundary,
                       informative_iterations, local_error, iterations_done)
  };

  linalg::CsrMatrix a_local_;
  linalg::Vector b_ext_;
  linalg::Vector rhs_;  ///< build_rhs's output, kept so a solve allocates none
  State state_;
  bool lower_fresh_ = false;
  bool upper_fresh_ = false;

  /// What outgoing() returns: the encoded lines for the predecessor and the
  /// successor, rewritten in place on each send, and the records viewing
  /// them.
  serial::Bytes line_down_;
  serial::Bytes line_up_;
  std::array<core::OutgoingData, 2> outgoing_{};

  double inv_h2_ = 0.0;
  bool last_iteration_informative_ = false;
  bool last_solve_converged_ = false;
  double last_solve_flops_ = 0.0;
  std::uint64_t last_send_iteration_ = 0;
  bool sent_since_last_solve_ = false;
};

/// Reassemble the global solution from per-task FinalState payloads.
linalg::Vector assemble_solution(std::size_t n, std::uint32_t task_count,
                                 const std::vector<serial::Bytes>& payloads,
                                 std::size_t overlap_lines = 0);

/// Relative residual ||b - A x|| / ||b|| for a Poisson instance config.
double poisson_relative_residual(const PoissonConfig& config,
                                 const linalg::Vector& x);

/// Build the AppDescriptor::config bytes and full rhs/matrix helpers.
serial::Bytes encode_config(const PoissonConfig& config);

/// The global right-hand side a PoissonConfig describes (for verification).
linalg::Vector global_rhs(const PoissonConfig& config);

/// Ensure this translation unit's program registration is linked in.
void force_registration();

}  // namespace jacepp::poisson
