#include "poisson/block_task.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "poisson/poisson.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace jacepp::poisson {

linalg::CsrMatrix assemble_local_laplacian(std::size_t n, std::size_t row_lo,
                                           std::size_t row_hi) {
  JACEPP_ASSERT(row_lo < row_hi && row_hi <= n * n);
  JACEPP_ASSERT(row_lo % n == 0 && row_hi % n == 0);
  const double h = 1.0 / static_cast<double>(n + 1);
  const double inv_h2 = 1.0 / (h * h);
  const std::size_t rows = row_hi - row_lo;
  linalg::CsrBuilder builder(rows, rows);
  for (std::size_t r = row_lo; r < row_hi; ++r) {
    const std::size_t i = r % n;  // position within the grid line
    const std::size_t local = r - row_lo;
    builder.add(local, local, 4.0 * inv_h2);
    if (i > 0) builder.add(local, local - 1, -inv_h2);
    if (i + 1 < n) builder.add(local, local + 1, -inv_h2);
    if (r >= n && r - n >= row_lo) builder.add(local, local - n, -inv_h2);
    if (r + n < n * n && r + n < row_hi) builder.add(local, local + n, -inv_h2);
  }
  return builder.build();
}

namespace {

/// The source term of rhs_kind 0, f = 2π² sin(πx) sin(πy).
double default_source(double x, double y) {
  return 2.0 * M_PI * M_PI * std::sin(M_PI * x) * std::sin(M_PI * y);
}

}  // namespace

linalg::Vector global_rhs(const PoissonConfig& config) {
  const std::size_t n = config.n;
  if (config.rhs_kind == 1) {
    Rng rng(config.rhs_seed);
    linalg::Vector exact(n * n);
    for (double& v : exact) v = rng.uniform(-1.0, 1.0);
    linalg::Vector b;
    assemble_laplacian(n).multiply(exact, b);
    return b;
  }
  return assemble_rhs(n, default_source);
}

serial::Bytes encode_config(const PoissonConfig& config) {
  return serial::encode(config);
}

bool PoissonTask::init(const core::AppDescriptor& app, core::TaskId task_id) {
  // The config comes from a peer: refuse, before anything is allocated, one
  // that does not decode or describes no grid this task can solve.
  serial::Reader reader(app.config);
  const PoissonConfig config = reader.object<PoissonConfig>();
  // For rhs_kind 1, global_rhs builds the whole n² right-hand side and the
  // whole n²-row Laplacian, whose up to 5 n² nonzeros the CSR indexes in 32
  // bits; past that grid side the right-hand side alone is tens of
  // gigabytes. n² cannot overflow: n has 32 bits. A negative or non-finite
  // work_scale would charge negative or unbounded compute.
  const std::uint64_t cells = std::uint64_t{config.n} * config.n;
  if (!reader.ok() || config.n < 2 ||
      cells > std::numeric_limits<std::uint32_t>::max() / 5 ||
      !(config.work_scale >= 0.0 && std::isfinite(config.work_scale))) {
    return false;
  }
  const std::size_t n = config.n;
  const std::size_t overlap_rows = std::size_t{config.overlap_lines} * n;
  auto blocks = linalg::partition_rows(n * n, app.task_count, n, overlap_rows);
  if (task_id >= blocks.size()) return false;
  // The boundary-line exchange requires every block to own at least
  // overlap + 1 full lines (see outgoing()).
  for (const auto& blk : blocks) {
    if (blk.owned_size() < overlap_rows + n) return false;
  }

  config_ = config;
  task_id_ = task_id;
  task_count_ = app.task_count;
  blocks_ = std::move(blocks);
  block_ = blocks_[task_id_];

  const double h = 1.0 / static_cast<double>(n + 1);
  inv_h2_ = 1.0 / (h * h);

  a_local_ = assemble_local_laplacian(n, block_.ext_lo, block_.ext_hi);

  if (config_.rhs_kind == 1) {
    const linalg::Vector full_rhs = global_rhs(config_);
    b_ext_.assign(
        full_rhs.begin() + static_cast<std::ptrdiff_t>(block_.ext_lo),
        full_rhs.begin() + static_cast<std::ptrdiff_t>(block_.ext_hi));
  } else {
    // f on this block's rows only, at the grid points assemble_rhs uses
    // (row r is grid point (r % n, r / n)), so the values are the global
    // right-hand side's bits.
    b_ext_.resize(block_.ext_size());
    for (std::size_t r = block_.ext_lo; r < block_.ext_hi; ++r) {
      const double x = static_cast<double>(r % n + 1) * h;
      const double y = static_cast<double>(r / n + 1) * h;
      b_ext_[r - block_.ext_lo] = default_source(x, y);
    }
  }

  state_ = State{};
  state_.x_ext.assign(block_.ext_size(), 0.0);
  state_.owned_prev.assign(block_.owned_size(), 0.0);
  state_.lower_boundary.assign(n, 0.0);
  state_.upper_boundary.assign(n, 0.0);
  lower_fresh_ = upper_fresh_ = false;
  return true;
}

void PoissonTask::build_rhs(linalg::Vector& rhs) const {
  const std::size_t n = config_.n;
  rhs = b_ext_;
  // Dirichlet data at the extended boundary comes from the neighbours' latest
  // published lines; the outermost tasks use the domain boundary (zero).
  if (task_id_ > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] += inv_h2_ * state_.lower_boundary[i];
    }
  }
  if (task_id_ + 1 < task_count_) {
    const std::size_t base = block_.ext_size() - n;
    for (std::size_t i = 0; i < n; ++i) {
      rhs[base + i] += inv_h2_ * state_.upper_boundary[i];
    }
  }
}

double PoissonTask::iterate() {
  // Starved iteration: no new boundary content since the last converged
  // solve. Re-solving would return x unchanged bit-for-bit, so the real math
  // is skipped — but the VIRTUAL cost charged is that of the full solve the
  // paper's implementation performs regardless of updates. These are exactly
  // the paper's "iterations without update" that do not make the computation
  // progress (§7): same price, no progress.
  if (state_.iterations_done > 0 && !lower_fresh_ && !upper_fresh_ &&
      last_solve_converged_) {
    ++state_.iterations_done;
    last_iteration_informative_ = task_count_ == 1;
    return last_solve_flops_;
  }

  build_rhs(rhs_);

  linalg::CgOptions options;
  options.tolerance = config_.inner_tolerance;
  options.max_iterations = config_.inner_max_iterations;
  const auto cg =
      linalg::conjugate_gradient(a_local_, rhs_, state_.x_ext, options);
  last_solve_converged_ = cg.converged;
  sent_since_last_solve_ = false;

  // Relative change of the OWNED components — the published iterate — in
  // the same pass that records them in state_.owned_prev.
  const std::size_t off = block_.owned_offset();
  double diff2 = 0.0;
  double norm2 = 0.0;
  for (std::size_t i = 0; i < block_.owned_size(); ++i) {
    const double v = state_.x_ext[off + i];
    const double d = v - state_.owned_prev[i];
    diff2 += d * d;
    norm2 += v * v;
    state_.owned_prev[i] = v;
  }
  state_.local_error = std::sqrt(diff2) / std::max(std::sqrt(norm2), 1e-300);

  ++state_.iterations_done;
  // The very first iteration is informative too: it moves x off the initial
  // guess regardless of neighbour data.
  last_iteration_informative_ =
      lower_fresh_ || upper_fresh_ || task_count_ == 1 ||
      state_.iterations_done == 1;
  if (last_iteration_informative_) ++state_.informative_iterations;
  lower_fresh_ = upper_fresh_ = false;

  const double flops =
      (cg.flops + 6.0 * static_cast<double>(block_.ext_size())) *
      config_.work_scale;
  // Starved iterations will charge the cost of a representative solve; use a
  // slowly-tracking maximum so early cheap warm-started solves do not
  // underprice them.
  last_solve_flops_ = std::max(flops, 0.5 * last_solve_flops_);
  return flops;
}

std::span<const core::OutgoingData> PoissonTask::outgoing() {
  // Send boundary lines after every real solve; during starved spins resend
  // only every kResendInterval iterations — a low-rate refresh that feeds
  // replacement daemons (which join with empty boundary buffers) without
  // flooding the network with bit-identical lines.
  constexpr std::uint64_t kResendInterval = 8;
  if (sent_since_last_solve_ &&
      state_.iterations_done - last_send_iteration_ < kResendInterval) {
    return {};
  }
  sent_since_last_solve_ = true;
  last_send_iteration_ = state_.iterations_done;

  const std::size_t n = config_.n;
  const std::size_t overlap_rows = config_.overlap_lines * n;
  std::size_t count = 0;

  // Each line is encoded straight from x_ext into the task's buffer for
  // that neighbour, which keeps its capacity from one send to the next.
  auto put_line = [&](core::TaskId to, std::size_t global_start,
                      serial::Bytes& line, std::uint32_t tag) {
    JACEPP_ASSERT(global_start >= block_.owned_lo &&
                  global_start + n <= block_.owned_hi);
    line.reserve(serial::varint_size(n) + n * sizeof(double));
    serial::Writer writer(std::move(line));
    writer.f64_vector(state_.x_ext.data() + (global_start - block_.ext_lo), n);
    line = writer.take();
    outgoing_[count++] = core::OutgoingData{to, line, tag};
  };

  // Stream tags name the boundary direction: the line a neighbour receives
  // from below (tag 0) vs from above (tag 1). Each (pair, tag) is one
  // latest-wins stream in the link layer.
  if (task_id_ > 0) {
    // The predecessor's extended block ends at my owned_lo + overlap; it
    // needs the line right above that boundary.
    put_line(task_id_ - 1, block_.owned_lo + overlap_rows, line_down_, 1);
  }
  if (task_id_ + 1 < task_count_) {
    // The successor's extended block starts at my owned_hi - overlap; it
    // needs the line right below that boundary.
    put_line(task_id_ + 1, block_.owned_hi - overlap_rows - n, line_up_, 0);
  }
  return {outgoing_.data(), count};
}

namespace {

/// Two doubles, one SSE2 register at the baseline ISA, and the lane mask
/// their comparison yields.
using Pair = double __attribute__((vector_size(16)));
using PairMask = std::int64_t __attribute__((vector_size(16)));

/// Copies a received line's doubles (little-endian, as f64_vector writes
/// them) over `held`, which has the line's length, and reports whether any
/// element compares unequal: a ±0 swap is no news, a NaN always is. The
/// held bits become the line's.
bool take_line(const std::uint8_t* line, linalg::Vector& held) {
  const std::size_t n = held.size();
  double* out = held.data();
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    // Four doubles a step. A vector != is the scalar one lane by lane (an
    // unordered compare, so a NaN lane is always set). The first step that
    // finds a difference makes the line fresh, and the rest is a copy.
    for (; i + 4 <= n; i += 4) {
      Pair v0, v1, h0, h1;
      __builtin_memcpy(&v0, line + i * sizeof(double), sizeof v0);
      __builtin_memcpy(&v1, line + (i + 2) * sizeof(double), sizeof v1);
      __builtin_memcpy(&h0, out + i, sizeof h0);
      __builtin_memcpy(&h1, out + i + 2, sizeof h1);
      __builtin_memcpy(out + i, &v0, sizeof v0);
      __builtin_memcpy(out + i + 2, &v1, sizeof v1);
      const PairMask unequal = (v0 != h0) | (v1 != h1);
      if ((unequal[0] | unequal[1]) != 0) {
        i += 4;
        __builtin_memcpy(out + i, line + i * sizeof(double),
                         (n - i) * sizeof(double));
        return true;
      }
    }
  }
  bool changed = false;
  for (; i < n; ++i) {
    const double v = serial::load_f64(line + i * sizeof(double));
    changed |= v != out[i];
    out[i] = v;
  }
  return changed;
}

}  // namespace

void PoissonTask::on_data(core::TaskId from_task, serial::ByteView payload) {
  // A line is taken when it is n doubles in the f64_vector encoding (bytes
  // after them are ignored); it is decoded straight into the held line.
  serial::Reader reader(payload);
  const std::uint8_t* line = reader.f64_vector_in_place(config_.n);
  if (line == nullptr) return;  // malformed: drop
  // Last-received-wins (paper §4): the newest line to arrive replaces the
  // held one, also after the neighbour restarted from an older checkpoint,
  // since its data is then the freshest available.
  //
  // Freshness is CONTENT-based: a starved neighbour keeps re-sending an
  // unchanged line every spin iteration, and treating those arrivals as new
  // information would let update-distance hit zero and fake local stability
  // (the paper's "no update received" iterations).
  if (from_task + 1 == task_id_) {
    if (take_line(line, state_.lower_boundary)) lower_fresh_ = true;
  } else if (from_task == task_id_ + 1) {
    if (take_line(line, state_.upper_boundary)) upper_fresh_ = true;
  }
}

serial::Bytes PoissonTask::checkpoint() const {
  return serial::encode(state_);
}

bool PoissonTask::restore(const serial::Bytes& bytes) {
  // Commit only a state whose every vector has the shape init() gave this
  // block: iterate() indexes all four unchecked.
  serial::Reader reader(bytes);
  State state = reader.object<State>();
  if (!reader.ok() || state.x_ext.size() != block_.ext_size() ||
      state.owned_prev.size() != block_.owned_size() ||
      state.lower_boundary.size() != config_.n ||
      state.upper_boundary.size() != config_.n) {
    return false;
  }
  state_ = std::move(state);
  lower_fresh_ = upper_fresh_ = false;
  return true;
}

linalg::Vector PoissonTask::owned_slice() const {
  const std::size_t off = block_.owned_offset();
  const auto first = state_.x_ext.begin() + static_cast<std::ptrdiff_t>(off);
  return linalg::Vector(
      first, first + static_cast<std::ptrdiff_t>(block_.owned_size()));
}

serial::Bytes PoissonTask::final_payload() const {
  serial::Writer writer;
  writer.f64_vector(owned_slice());
  return writer.take();
}

linalg::Vector assemble_solution(std::size_t n, std::uint32_t task_count,
                                 const std::vector<serial::Bytes>& payloads,
                                 std::size_t overlap_lines) {
  const auto blocks =
      linalg::partition_rows(n * n, task_count, n, overlap_lines * n);
  linalg::Vector x(n * n, 0.0);
  for (std::size_t t = 0; t < blocks.size() && t < payloads.size(); ++t) {
    if (payloads[t].empty()) continue;
    serial::Reader reader(payloads[t]);
    const linalg::Vector slice = reader.f64_vector<linalg::Vector>();
    if (!reader.ok() || slice.size() != blocks[t].owned_size()) continue;
    std::copy(slice.begin(), slice.end(),
              x.begin() + static_cast<std::ptrdiff_t>(blocks[t].owned_lo));
  }
  return x;
}

double poisson_relative_residual(const PoissonConfig& config,
                                 const linalg::Vector& x) {
  const auto a = assemble_laplacian(config.n);
  const auto b = global_rhs(config);
  linalg::Vector ax;
  a.multiply(x, ax);
  double r2 = 0.0;
  double b2 = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double d = b[i] - ax[i];
    r2 += d * d;
    b2 += b[i] * b[i];
  }
  return std::sqrt(r2) / std::max(std::sqrt(b2), 1e-300);
}

void force_registration() {
  static core::ProgramRegistrar registrar(PoissonTask::kProgramName, [] {
    return std::unique_ptr<core::Task>(new PoissonTask());
  });
  (void)registrar;
}

namespace {
/// Registers "poisson" whenever this translation unit is linked in.
const bool kRegistered = [] {
  force_registration();
  return true;
}();
}  // namespace

}  // namespace jacepp::poisson
