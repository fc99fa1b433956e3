// GenericMultisplitTask — run ANY symmetric positive definite sparse system
// A x = b on JaceP2P, not just the Poisson instance of the paper.
//
// The AppDescriptor config carries the full CSR matrix and right-hand side
// (practical for the moderate systems a P2P deployment would ship to every
// peer as "input data"); each task owns a contiguous row block, solves its
// diagonal block with CG, and exchanges exactly the owned components its
// neighbours' rows couple to — the dependency sets are derived from the
// sparsity pattern, so any coupling topology works (not only the Poisson
// predecessor/successor chain).
//
// Registered under the program name "generic.multisplit".
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/task.hpp"
#include "linalg/cg.hpp"
#include "linalg/csr.hpp"
#include "linalg/partition.hpp"
#include "serial/serial.hpp"

namespace jacepp::core {

/// Program arguments for the generic solver.
struct GenericConfig {
  linalg::CsrMatrix a;            ///< full system matrix (SPD)
  linalg::Vector b;               ///< right-hand side
  double inner_tolerance = 1e-8;
  std::uint32_t inner_max_iterations = 500;
  double work_scale = 1.0;

  JACEPP_WIRE_FIELDS(a, b, inner_tolerance, inner_max_iterations, work_scale)
};

class GenericMultisplitTask : public Task {
 public:
  static constexpr const char* kProgramName = "generic.multisplit";

  [[nodiscard]] bool init(const AppDescriptor& app, TaskId task_id) override;
  double iterate() override;
  std::span<const OutgoingData> outgoing() override;
  [[nodiscard]] double local_error() const override {
    return state_.local_error;
  }
  [[nodiscard]] bool error_is_informative() const override { return informative_; }
  void on_data(TaskId from_task, serial::ByteView payload) override;
  [[nodiscard]] serial::Bytes checkpoint() const override;
  [[nodiscard]] bool restore(const serial::Bytes& state) override;
  [[nodiscard]] serial::Bytes final_payload() const override;
  [[nodiscard]] std::uint64_t informative_iterations() const override {
    return state_.informative_count;
  }

  // --- Introspection ---
  [[nodiscard]] const linalg::RowBlock& block() const { return block_; }
  [[nodiscard]] const std::map<TaskId, std::vector<std::uint32_t>>&
  export_sets() const {
    return export_indices_;
  }

  /// Ensure the "generic.multisplit" registration is linked in.
  static void force_registration();

 private:
  GenericConfig config_;
  TaskId task_id_ = 0;
  std::uint32_t task_count_ = 0;
  std::vector<linalg::RowBlock> blocks_;
  linalg::RowBlock block_;

  /// What checkpoint() saves and restore() brings back, in wire order.
  struct State {
    linalg::Vector x_local;     ///< owned components
    linalg::Vector owned_prev;
    linalg::Vector x_halo;      ///< global-length scratch with halo values
    double local_error = 1.0;
    std::uint64_t iterations = 0;
    std::uint64_t informative_count = 0;

    JACEPP_WIRE_FIELDS(x_local, owned_prev, x_halo, local_error, iterations,
                       informative_count)
  };

  linalg::CsrMatrix a_local_;     ///< diagonal block
  State state_;

  /// For each peer task: the GLOBAL indices of MY owned components that the
  /// peer's rows reference (what I must send it).
  std::map<TaskId, std::vector<std::uint32_t>> export_indices_;
  /// Indexed by sender: the GLOBAL indices in ITS owned range that MY rows
  /// reference, in the order its export list sends them (empty when my rows
  /// do not couple to it).
  std::vector<std::vector<std::uint32_t>> import_indices_;
  /// For each peer task: last content received (global index → value applied
  /// into x_halo); used for content-based freshness.
  std::map<TaskId, linalg::Vector> last_received_;
  /// What outgoing() returns: one encoded export line per peer (in
  /// export_indices_ order), rewritten in place on each send, and the
  /// records viewing them; `gathered_` holds one line's values.
  std::vector<serial::Bytes> lines_;
  std::vector<OutgoingData> outgoing_;
  linalg::Vector gathered_;

  bool fresh_ = false;
  bool informative_ = false;
  bool last_solve_converged_ = false;
  double last_solve_flops_ = 0.0;
  bool sent_since_solve_ = false;
  std::uint64_t last_send_iteration_ = 0;
};

/// Assemble the global solution from per-task FinalState payloads of a
/// generic run (payload = owned slice as f64_vector).
linalg::Vector assemble_generic_solution(
    const linalg::CsrMatrix& a, std::uint32_t task_count,
    const std::vector<serial::Bytes>& payloads);

}  // namespace jacepp::core
