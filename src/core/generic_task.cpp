#include "core/generic_task.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace jacepp::core {

using linalg::CsrMatrix;
using linalg::RowBlock;
using linalg::Vector;

void GenericMultisplitTask::init(const AppDescriptor& app,
                                 TaskId task_id) {
  serial::Reader reader(app.config);
  config_ = reader.object<GenericConfig>();
  JACEPP_CHECK(reader.ok(), "GenericMultisplitTask: malformed config");
  const std::size_t n = config_.a.rows();
  JACEPP_CHECK(config_.a.cols() == n && config_.b.size() == n,
               "GenericMultisplitTask: inconsistent system");

  task_id_ = task_id;
  task_count_ = app.task_count;
  blocks_ = linalg::partition_rows(n, task_count_, 1, 0);
  block_ = blocks_[task_id_];

  a_local_ = config_.a.block(block_.owned_lo, block_.owned_hi, block_.owned_lo,
                             block_.owned_hi);
  x_local_.assign(block_.owned_size(), 0.0);
  owned_prev_.assign(block_.owned_size(), 0.0);
  x_halo_.assign(n, 0.0);

  // Dependency sets from the sparsity pattern: what each OTHER task's rows
  // reference inside my owned column range is what I must export to it (and,
  // symmetrically, what it will send me lands at the indices its range
  // contributes to my rows — both sides derive the same sorted lists).
  const auto& row_ptr = config_.a.row_ptr();
  const auto& col_idx = config_.a.col_idx();
  for (TaskId q = 0; q < task_count_; ++q) {
    if (q == task_id_) continue;
    std::vector<std::uint32_t> exports;
    for (std::size_t r = blocks_[q].owned_lo; r < blocks_[q].owned_hi; ++r) {
      for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const std::uint32_t c = col_idx[k];
        if (c >= block_.owned_lo && c < block_.owned_hi) exports.push_back(c);
      }
    }
    std::sort(exports.begin(), exports.end());
    exports.erase(std::unique(exports.begin(), exports.end()), exports.end());
    if (!exports.empty()) export_indices_[q] = std::move(exports);
  }

  fresh_ = false;
  informative_ = false;
  last_solve_converged_ = false;
  local_error_ = 1.0;
  iterations_ = 0;
  informative_count_ = 0;
}

double GenericMultisplitTask::iterate() {
  // Starved iteration: nothing changed, the warm-started solve would return
  // x unchanged; charge a representative full-solve cost (the paper's
  // iterations run whether or not an update arrived) without the real math.
  if (iterations_ > 0 && !fresh_ && last_solve_converged_) {
    ++iterations_;
    informative_ = task_count_ == 1;
    return last_solve_flops_;
  }

  // rhs = b_local - (off-block couplings) · x_halo.
  Vector rhs(config_.b.begin() + static_cast<std::ptrdiff_t>(block_.owned_lo),
             config_.b.begin() + static_cast<std::ptrdiff_t>(block_.owned_hi));
  Vector coupling(block_.owned_size(), 0.0);
  config_.a.off_block_multiply_add(block_.owned_lo, block_.owned_hi,
                                   block_.owned_lo, block_.owned_hi, x_halo_,
                                   coupling);
  linalg::axpy(-1.0, coupling, rhs);  // rhs -= coupling, exact

  linalg::CgOptions options;
  options.tolerance = config_.inner_tolerance;
  options.max_iterations = config_.inner_max_iterations;
  const auto cg = linalg::conjugate_gradient(a_local_, rhs, x_local_, options);
  last_solve_converged_ = cg.converged;
  sent_since_solve_ = false;
  ckpt_solve_dirty_ = true;

  double diff2 = 0.0;
  double norm2 = 0.0;
  for (std::size_t i = 0; i < x_local_.size(); ++i) {
    const double d = x_local_[i] - owned_prev_[i];
    diff2 += d * d;
    norm2 += x_local_[i] * x_local_[i];
    owned_prev_[i] = x_local_[i];
  }
  local_error_ = std::sqrt(diff2) / std::max(std::sqrt(norm2), 1e-300);

  informative_ = fresh_ || iterations_ == 0 || task_count_ == 1;
  if (informative_) ++informative_count_;
  fresh_ = false;
  ++iterations_;

  const double flops =
      (cg.flops + 4.0 * static_cast<double>(block_.owned_size())) *
      config_.work_scale;
  last_solve_flops_ = std::max(flops, 0.5 * last_solve_flops_);
  return flops;
}

std::vector<OutgoingData> GenericMultisplitTask::outgoing() {
  constexpr std::uint64_t kResendInterval = 8;
  if (sent_since_solve_ && iterations_ - last_send_iteration_ < kResendInterval) {
    return {};
  }
  sent_since_solve_ = true;
  last_send_iteration_ = iterations_;

  std::vector<OutgoingData> out;
  out.reserve(export_indices_.size());
  for (const auto& [peer, indices] : export_indices_) {
    Vector values;
    values.reserve(indices.size());
    for (const std::uint32_t global : indices) {
      values.push_back(x_local_[global - block_.owned_lo]);
    }
    serial::Writer writer;
    writer.f64_vector(values);
    // One halo-export stream per peer, so tag 0 throughout.
    out.push_back(OutgoingData{peer, writer.take(), 0});
  }
  return out;
}

void GenericMultisplitTask::on_data(TaskId from_task, std::uint64_t /*iteration*/,
                                    const serial::Bytes& payload) {
  if (from_task >= task_count_ || from_task == task_id_) return;
  // My import set from `from_task` mirrors its export computation: the
  // columns in ITS owned range that MY rows reference.
  const RowBlock& src = blocks_[from_task];
  serial::Reader reader(payload);
  Vector values = reader.f64_vector<Vector>();
  if (!reader.ok()) return;

  // Derive (once, lazily) the expected index list for this sender.
  static thread_local std::vector<std::uint32_t> scratch;
  scratch.clear();
  const auto& row_ptr = config_.a.row_ptr();
  const auto& col_idx = config_.a.col_idx();
  for (std::size_t r = block_.owned_lo; r < block_.owned_hi; ++r) {
    for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::uint32_t c = col_idx[k];
      if (c >= src.owned_lo && c < src.owned_hi) scratch.push_back(c);
    }
  }
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  if (values.size() != scratch.size()) return;  // malformed: drop

  auto& last = last_received_[from_task];
  if (last != values) {
    fresh_ = true;
    ckpt_halo_dirty_ = true;
  }
  last = values;
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    x_halo_[scratch[i]] = values[i];
  }
}

serial::Bytes GenericMultisplitTask::checkpoint() const {
  serial::Writer writer;
  writer.f64_vector(x_local_);
  writer.f64_vector(owned_prev_);
  writer.f64_vector(x_halo_);
  writer.f64(local_error_);
  writer.u64(iterations_);
  writer.u64(informative_count_);
  return writer.take();
}

bool GenericMultisplitTask::restore(const serial::Bytes& state) {
  // Decode into locals and commit only a state whose every vector has the
  // shape init() set.
  serial::Reader reader(state);
  Vector x_local = reader.f64_vector<Vector>();
  Vector owned_prev = reader.f64_vector<Vector>();
  Vector x_halo = reader.f64_vector<Vector>();
  const double local_error = reader.f64();
  const std::uint64_t iterations = reader.u64();
  const std::uint64_t informative_count = reader.u64();
  if (!reader.ok() || x_local.size() != block_.owned_size() ||
      owned_prev.size() != block_.owned_size() ||
      x_halo.size() != config_.a.rows()) {
    return false;
  }
  x_local_ = std::move(x_local);
  owned_prev_ = std::move(owned_prev);
  x_halo_ = std::move(x_halo);
  local_error_ = local_error;
  iterations_ = iterations;
  informative_count_ = informative_count;
  last_received_.clear();
  fresh_ = false;
  last_solve_converged_ = false;  // force a real solve after restore
  ckpt_solve_dirty_ = ckpt_halo_dirty_ = true;
  return true;
}

std::optional<checkpoint::DirtyRanges>
GenericMultisplitTask::take_dirty_ranges() {
  // Layout of checkpoint(): x_local_ | owned_prev_ | x_halo_ | error +
  // iteration counters. Sizes are fixed after init.
  const std::size_t prev_end =
      serial::varint_size(x_local_.size()) + sizeof(double) * x_local_.size() +
      serial::varint_size(owned_prev_.size()) +
      sizeof(double) * owned_prev_.size();
  const std::size_t halo_end = prev_end + serial::varint_size(x_halo_.size()) +
                               sizeof(double) * x_halo_.size();
  const std::size_t total = halo_end + 3 * sizeof(std::uint64_t);

  checkpoint::DirtyRanges d;
  if (ckpt_solve_dirty_) d.mark(0, prev_end);
  if (ckpt_halo_dirty_) d.mark(prev_end, halo_end);
  d.mark(halo_end, total);  // scalars change every iteration
  ckpt_solve_dirty_ = ckpt_halo_dirty_ = false;
  return d;
}

serial::Bytes GenericMultisplitTask::final_payload() const {
  serial::Writer writer;
  writer.f64_vector(x_local_);
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
  for (std::uint32_t t = 0; t < task_count && t < payloads.size(); ++t) {
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
