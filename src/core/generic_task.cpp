#include "core/generic_task.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace jacepp::core {

using linalg::CsrMatrix;
using linalg::RowBlock;
using linalg::Vector;

namespace {

/// The distinct columns in `cols`' owned range that the rows of `rows`'
/// owned range reference, ascending.
std::vector<std::uint32_t> coupled_columns(const CsrMatrix& a,
                                           const RowBlock& rows,
                                           const RowBlock& cols) {
  std::vector<std::uint32_t> out;
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  for (std::size_t r = rows.owned_lo; r < rows.owned_hi; ++r) {
    for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::uint32_t c = col_idx[k];
      if (c >= cols.owned_lo && c < cols.owned_hi) out.push_back(c);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

bool GenericMultisplitTask::init(const AppDescriptor& app,
                                 TaskId task_id) {
  // The config comes from a peer: refuse one that does not decode, whose
  // matrix and right-hand side disagree, whose work_scale is negative or
  // not finite, or whose rows are fewer than the tasks.
  serial::Reader reader(app.config);
  GenericConfig config = reader.object<GenericConfig>();
  const std::size_t n = config.a.rows();
  if (!reader.ok() || config.a.cols() != n || config.b.size() != n ||
      !(config.work_scale >= 0.0 && std::isfinite(config.work_scale))) {
    return false;
  }
  auto blocks = linalg::partition_rows(n, app.task_count, 1, 0);
  if (task_id >= blocks.size()) return false;

  config_ = std::move(config);
  task_id_ = task_id;
  task_count_ = app.task_count;
  blocks_ = std::move(blocks);
  block_ = blocks_[task_id_];

  a_local_ = config_.a.block(block_.owned_lo, block_.owned_hi, block_.owned_lo,
                             block_.owned_hi);
  state_ = State{};
  state_.x_local.assign(block_.owned_size(), 0.0);
  state_.owned_prev.assign(block_.owned_size(), 0.0);
  state_.x_halo.assign(n, 0.0);

  // Dependency sets from the sparsity pattern: what each OTHER task's rows
  // reference inside my owned column range is what I must export to it, and
  // what my rows reference inside its range is what it sends me. Both sides
  // derive the same sorted lists.
  import_indices_.assign(task_count_, {});
  for (TaskId q = 0; q < task_count_; ++q) {
    if (q == task_id_) continue;
    auto exports = coupled_columns(config_.a, blocks_[q], block_);
    if (!exports.empty()) export_indices_[q] = std::move(exports);
    import_indices_[q] = coupled_columns(config_.a, block_, blocks_[q]);
  }

  fresh_ = false;
  informative_ = false;
  last_solve_converged_ = false;
  return true;
}

double GenericMultisplitTask::iterate() {
  // Starved iteration: nothing changed, the warm-started solve would return
  // x unchanged; charge a representative full-solve cost (the paper's
  // iterations run whether or not an update arrived) without the real math.
  if (state_.iterations > 0 && !fresh_ && last_solve_converged_) {
    ++state_.iterations;
    informative_ = task_count_ == 1;
    return last_solve_flops_;
  }

  // rhs = b_local - (off-block couplings) · x_halo.
  Vector rhs(config_.b.begin() + static_cast<std::ptrdiff_t>(block_.owned_lo),
             config_.b.begin() + static_cast<std::ptrdiff_t>(block_.owned_hi));
  Vector coupling(block_.owned_size(), 0.0);
  config_.a.off_block_multiply_add(block_.owned_lo, block_.owned_hi,
                                   block_.owned_lo, block_.owned_hi,
                                   state_.x_halo, coupling);
  linalg::axpy(-1.0, coupling, rhs);  // rhs -= coupling, exact

  linalg::CgOptions options;
  options.tolerance = config_.inner_tolerance;
  options.max_iterations = config_.inner_max_iterations;
  Vector& x = state_.x_local;
  const auto cg = linalg::conjugate_gradient(a_local_, rhs, x, options);
  last_solve_converged_ = cg.converged;
  sent_since_solve_ = false;

  double diff2 = 0.0;
  double norm2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - state_.owned_prev[i];
    diff2 += d * d;
    norm2 += x[i] * x[i];
    state_.owned_prev[i] = x[i];
  }
  state_.local_error = std::sqrt(diff2) / std::max(std::sqrt(norm2), 1e-300);

  informative_ = fresh_ || state_.iterations == 0 || task_count_ == 1;
  if (informative_) ++state_.informative_count;
  fresh_ = false;
  ++state_.iterations;

  const double flops =
      (cg.flops + 4.0 * static_cast<double>(block_.owned_size())) *
      config_.work_scale;
  last_solve_flops_ = std::max(flops, 0.5 * last_solve_flops_);
  return flops;
}

std::span<const OutgoingData> GenericMultisplitTask::outgoing() {
  constexpr std::uint64_t kResendInterval = 8;
  if (sent_since_solve_ &&
      state_.iterations - last_send_iteration_ < kResendInterval) {
    return {};
  }
  sent_since_solve_ = true;
  last_send_iteration_ = state_.iterations;

  lines_.resize(export_indices_.size());
  outgoing_.clear();
  for (const auto& [peer, indices] : export_indices_) {
    gathered_.clear();
    for (const std::uint32_t global : indices) {
      gathered_.push_back(state_.x_local[global - block_.owned_lo]);
    }
    serial::Bytes& line = lines_[outgoing_.size()];
    serial::Writer writer(std::move(line));
    writer.f64_vector(gathered_);
    line = writer.take();
    // One halo-export stream per peer, so tag 0 throughout.
    outgoing_.push_back(OutgoingData{peer, line, 0});
  }
  return outgoing_;
}

void GenericMultisplitTask::on_data(TaskId from_task,
                                    serial::ByteView payload) {
  if (from_task >= task_count_ || from_task == task_id_) return;
  serial::Reader reader(payload);
  Vector values = reader.f64_vector<Vector>();
  if (!reader.ok()) return;
  const std::vector<std::uint32_t>& imports = import_indices_[from_task];
  if (values.size() != imports.size()) return;  // malformed: drop

  auto& last = last_received_[from_task];
  if (last != values) fresh_ = true;
  last = values;
  for (std::size_t i = 0; i < imports.size(); ++i) {
    state_.x_halo[imports[i]] = values[i];
  }
}

serial::Bytes GenericMultisplitTask::checkpoint() const {
  return serial::encode(state_);
}

bool GenericMultisplitTask::restore(const serial::Bytes& bytes) {
  // Commit only a state whose every vector has the shape init() set.
  serial::Reader reader(bytes);
  State state = reader.object<State>();
  if (!reader.ok() || state.x_local.size() != block_.owned_size() ||
      state.owned_prev.size() != block_.owned_size() ||
      state.x_halo.size() != config_.a.rows()) {
    return false;
  }
  state_ = std::move(state);
  last_received_.clear();
  fresh_ = false;
  last_solve_converged_ = false;  // force a real solve after restore
  return true;
}

serial::Bytes GenericMultisplitTask::final_payload() const {
  serial::Writer writer;
  writer.f64_vector(state_.x_local);
  return writer.take();
}

void GenericMultisplitTask::force_registration() {
  static ProgramRegistrar registrar(kProgramName, [] {
    return std::unique_ptr<Task>(new GenericMultisplitTask());
  });
  (void)registrar;
}

namespace {
const bool kRegistered = [] {
  GenericMultisplitTask::force_registration();
  return true;
}();
}  // namespace

linalg::Vector assemble_generic_solution(
    const CsrMatrix& a, std::uint32_t task_count,
    const std::vector<serial::Bytes>& payloads) {
  const auto blocks = linalg::partition_rows(a.rows(), task_count, 1, 0);
  Vector x(a.rows(), 0.0);
  for (std::size_t t = 0; t < blocks.size() && t < payloads.size(); ++t) {
    if (payloads[t].empty()) continue;
    serial::Reader reader(payloads[t]);
    const Vector slice = reader.f64_vector<Vector>();
    if (!reader.ok() || slice.size() != blocks[t].owned_size()) continue;
    std::copy(slice.begin(), slice.end(),
              x.begin() + static_cast<std::ptrdiff_t>(blocks[t].owned_lo));
  }
  return x;
}

}  // namespace jacepp::core
