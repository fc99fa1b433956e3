// Tutorial: writing your own JaceP2P application.
//
// The paper's programming model (§4.2): "A user application is a SPMD
// program which uses JaceP2P methods by extending the Task class". This
// example builds a complete custom application from scratch — the steady 1-D
// heat equation -u'' = f solved by asynchronous block-Jacobi with an exact
// tridiagonal (Thomas) inner solver — registers it as a program, launches it
// on a simulated JaceP2P network with a failure, and checks the answer.
//
// The five things a task implements:
//   init()        — build local state from the AppDescriptor + task id
//   iterate()     — one outer iteration of real math; returns its flops
//   outgoing()    — dependency data to push to neighbours afterwards
//   on_data()     — latest-wins reception of neighbour data
//   checkpoint()/restore() — serialize state for the Backup fault tolerance
//
// Keep what checkpoint() saves in one wire struct (`State` below): its
// JACEPP_WIRE_FIELDS list is the whole checkpoint layout, so checkpoint() is
// one serial::encode call and restore() one Reader::object call plus the
// shape check that guards against a state from a misbehaving peer.
#include <array>
#include <cmath>
#include <cstdio>
#include <span>

#include "core/deployment.hpp"
#include "core/task.hpp"
#include "serial/serial.hpp"
#include "support/flags.hpp"

using namespace jacepp;

namespace {

/// Program arguments, carried as bytes in AppDescriptor::config.
struct HeatConfig {
  std::uint32_t cells = 256;  ///< interior unknowns on [0, 1]
  /// Emulated per-cell kernel weight: scales the flops each iteration
  /// reports so the simulated compute time dwarfs per-message latency
  /// (otherwise a trivial 1-D solve spins sub-microsecond iterations).
  double work_per_cell = 1e4;

  JACEPP_WIRE_FIELDS(cells, work_per_cell)
};

/// -u'' = f, f = pi^2 sin(pi x)  ⇒  u = sin(pi x), Dirichlet u(0)=u(1)=0.
class HeatTask : public core::Task {
 public:
  static constexpr const char* kProgramName = "examples.heat1d";

  bool init(const core::AppDescriptor& app, core::TaskId task_id) override {
    // The descriptor comes from a peer: refuse a config that does not
    // decode or leaves a task without a cell.
    serial::Reader reader(app.config);
    const HeatConfig config = reader.object<HeatConfig>();
    if (!reader.ok() || config.cells < app.task_count) return false;
    config_ = config;
    task_id_ = task_id;
    task_count_ = app.task_count;

    // Contiguous chunk of unknowns for this task.
    const std::uint32_t base = config_.cells / task_count_;
    const std::uint32_t extra = config_.cells % task_count_;
    lo_ = task_id * base + std::min(task_id, extra);
    size_ = base + (task_id < extra ? 1 : 0);

    const double h = 1.0 / (config_.cells + 1);
    inv_h2_ = 1.0 / (h * h);
    b_.resize(size_);
    for (std::uint32_t i = 0; i < size_; ++i) {
      const double x = (lo_ + i + 1) * h;
      b_[i] = M_PI * M_PI * std::sin(M_PI * x);
    }
    state_ = State{};
    state_.u.assign(size_, 0.0);
    prev_.assign(size_, 0.0);
    return true;
  }

  double iterate() override {
    // Solve the local tridiagonal system exactly (Thomas algorithm) with the
    // latest neighbour boundary values as Dirichlet data.
    std::vector<double>& u = state_.u;
    std::vector<double> rhs(b_);
    rhs.front() += inv_h2_ * state_.left_value;
    rhs.back() += inv_h2_ * state_.right_value;

    std::vector<double> c(size_, 0.0);
    std::vector<double> d(size_, 0.0);
    const double diag = 2.0 * inv_h2_;
    const double off = -inv_h2_;
    c[0] = off / diag;
    d[0] = rhs[0] / diag;
    for (std::uint32_t i = 1; i < size_; ++i) {
      const double m = diag - off * c[i - 1];
      c[i] = off / m;
      d[i] = (rhs[i] - off * d[i - 1]) / m;
    }
    u[size_ - 1] = d[size_ - 1];
    for (std::uint32_t i = size_ - 1; i-- > 0;) {
      u[i] = d[i] - c[i] * u[i + 1];
    }

    double diff2 = 0.0;
    double norm2 = 0.0;
    for (std::uint32_t i = 0; i < size_; ++i) {
      const double delta = u[i] - prev_[i];
      diff2 += delta * delta;
      norm2 += u[i] * u[i];
      prev_[i] = u[i];
    }
    error_ = std::sqrt(diff2) / std::max(std::sqrt(norm2), 1e-300);
    informative_ = fresh_ || state_.iterations == 0 || task_count_ == 1;
    fresh_ = false;
    ++state_.iterations;
    return 9.0 * size_ * config_.work_per_cell;
  }

  // The records and the bytes they view belong to the task, and stay valid
  // until the next iterate(); each send rewrites them in place.
  std::span<const core::OutgoingData> outgoing() override {
    std::size_t count = 0;
    auto one_value = [&](core::TaskId to, double v, serial::Bytes& bytes) {
      serial::Writer w(std::move(bytes));
      w.f64(v);
      bytes = w.take();
      out_[count++] = {to, bytes};
    };
    if (task_id_ > 0) one_value(task_id_ - 1, state_.u.front(), left_bytes_);
    if (task_id_ + 1 < task_count_) {
      one_value(task_id_ + 1, state_.u.back(), right_bytes_);
    }
    return {out_.data(), count};
  }

  [[nodiscard]] double local_error() const override { return error_; }
  [[nodiscard]] bool error_is_informative() const override { return informative_; }

  void on_data(core::TaskId from, serial::ByteView bytes) override {
    serial::Reader reader(bytes);
    const double value = reader.f64();
    if (!reader.ok()) return;
    if (from + 1 == task_id_ && value != state_.left_value) {
      state_.left_value = value;
      fresh_ = true;
    } else if (from == task_id_ + 1 && value != state_.right_value) {
      state_.right_value = value;
      fresh_ = true;
    }
  }

  [[nodiscard]] serial::Bytes checkpoint() const override {
    return serial::encode(state_);
  }

  bool restore(const serial::Bytes& bytes) override {
    // The state comes from a backup peer: refuse one that does not fit.
    serial::Reader r(bytes);
    State state = r.object<State>();
    if (!r.ok() || state.u.size() != size_) return false;
    state_ = std::move(state);
    prev_ = state_.u;
    return true;
  }

  [[nodiscard]] serial::Bytes final_payload() const override {
    serial::Writer w;
    w.f64_vector(state_.u);
    return w.take();
  }

 private:
  /// Everything checkpoint() saves, in wire order.
  struct State {
    std::vector<double> u;     ///< this task's unknowns
    double left_value = 0.0;   ///< latest neighbour values (Dirichlet data)
    double right_value = 0.0;
    std::uint64_t iterations = 0;

    JACEPP_WIRE_FIELDS(u, left_value, right_value, iterations)
  };

  HeatConfig config_;
  core::TaskId task_id_ = 0;
  std::uint32_t task_count_ = 0;
  std::uint32_t lo_ = 0;
  std::uint32_t size_ = 0;
  double inv_h2_ = 0.0;
  std::vector<double> b_, prev_;
  State state_;
  bool fresh_ = false;
  bool informative_ = false;
  double error_ = 1.0;
  /// What outgoing() sends: one encoded value per neighbour.
  serial::Bytes left_bytes_, right_bytes_;
  std::array<core::OutgoingData, 2> out_{};
};

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("custom_application",
                "Tutorial: a user-written 1-D heat task on JaceP2P");
  auto cells = flags.add_int("cells", 256, "interior unknowns");
  auto tasks = flags.add_int("tasks", 6, "computing peers");
  flags.parse(argc, argv);

  // Step 1 — register the program (the paper's "class files at a URL").
  core::TaskProgramRegistry::instance().register_program(
      HeatTask::kProgramName, [] { return std::make_unique<HeatTask>(); });

  // Step 2 — describe the application.
  HeatConfig hc;
  hc.cells = static_cast<std::uint32_t>(*cells);

  core::SimDeploymentConfig config;
  config.super_peer_count = 2;
  config.daemon_count = static_cast<std::size_t>(*tasks) + 3;
  config.app.app_id = 77;
  config.app.program = HeatTask::kProgramName;
  config.app.config = serial::encode(hc);
  config.app.task_count = static_cast<std::uint32_t>(*tasks);
  config.app.checkpoint_every = 10;
  config.app.backup_peer_count = 2;
  config.app.convergence_threshold = 1e-10;
  config.app.stable_iterations_required = 4;
  // One failure mid-run, for flavour.
  config.disconnect_times = {2.0};

  // Step 3 — run.
  core::SimDeployment deployment(config);
  const auto report = deployment.run();
  if (!report.spawner.completed) {
    std::printf("did not converge\n");
    return 1;
  }

  // Step 4 — assemble and check against u = sin(pi x).
  std::vector<double> u;
  for (const auto& payload : report.spawner.final_payloads) {
    serial::Reader r(payload);
    const auto slice = r.f64_vector();
    u.insert(u.end(), slice.begin(), slice.end());
  }
  double max_err = 0.0;
  const double h = 1.0 / (*cells + 1);
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double x = (static_cast<double>(i) + 1) * h;
    max_err = std::max(max_err, std::fabs(u[i] - std::sin(M_PI * x)));
  }

  std::printf("custom heat-1d application on %lld peers\n",
              static_cast<long long>(*tasks));
  std::printf("  converged at      : %.3f sim s\n",
              report.spawner.convergence_time);
  std::printf("  failures handled  : %llu\n",
              static_cast<unsigned long long>(report.spawner.failures_detected));
  std::printf("  max error vs sin  : %.3e (discretization is O(h^2) = %.1e)\n",
              max_err, h * h * M_PI * M_PI / 8);
  return max_err < 1e-3 ? 0 : 1;
}
