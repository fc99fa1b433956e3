#include "poisson/block_task.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "poisson/poisson.hpp"
#include "serial/checksum.hpp"
#include "support/rng.hpp"

namespace jacepp::poisson {
namespace {

core::AppDescriptor make_app(std::uint32_t n, std::uint32_t tasks,
                             std::uint32_t overlap_lines = 0,
                             std::uint32_t rhs_kind = 0) {
  PoissonConfig pc;
  pc.n = n;
  pc.overlap_lines = overlap_lines;
  pc.inner_tolerance = 1e-11;
  pc.rhs_kind = rhs_kind;
  pc.rhs_seed = 4242;
  core::AppDescriptor app;
  app.task_count = tasks;
  app.config = encode_config(pc);
  return app;
}

/// Drive a set of tasks with synchronous exchanges until quiescent.
void run_rounds(std::vector<PoissonTask>& tasks, std::size_t rounds) {
  for (std::size_t round = 0; round < rounds; ++round) {
    for (auto& t : tasks) t.iterate();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      for (auto& out : tasks[i].outgoing()) {
        tasks[out.to_task].on_data(static_cast<core::TaskId>(i), out.payload);
      }
    }
  }
}

double assembled_residual(std::vector<PoissonTask>& tasks, std::uint32_t n) {
  std::vector<serial::Bytes> payloads;
  payloads.reserve(tasks.size());
  for (auto& t : tasks) payloads.push_back(t.final_payload());
  PoissonConfig pc;
  pc.n = n;
  const auto x =
      assemble_solution(n, static_cast<std::uint32_t>(tasks.size()), payloads);
  return poisson_relative_residual(pc, x);
}

TEST(BlockTask, LocalLaplacianMatchesGlobalBlock) {
  const std::size_t n = 6;
  const auto global = assemble_laplacian(n);
  const auto local = assemble_local_laplacian(n, 12, 24);
  const auto block = global.block(12, 24, 12, 24);
  ASSERT_EQ(local.rows(), block.rows());
  for (std::size_t r = 0; r < local.rows(); ++r) {
    for (std::size_t c = 0; c < local.cols(); ++c) {
      EXPECT_NEAR(local.at(r, c), block.at(r, c), 1e-12) << r << "," << c;
    }
  }
}

TEST(BlockTask, SynchronousDrivingConvergesToReference) {
  const std::uint32_t n = 20;
  auto app = make_app(n, 4);
  std::vector<PoissonTask> tasks(4);
  for (std::uint32_t t = 0; t < 4; ++t) ASSERT_TRUE(tasks[t].init(app, t));
  run_rounds(tasks, 250);
  EXPECT_LT(assembled_residual(tasks, n), 1e-7);
}

TEST(BlockTask, ManufacturedRhsRecoversExactSolution) {
  const std::uint32_t n = 12;
  auto app = make_app(n, 3, 0, /*rhs_kind=*/1);
  std::vector<PoissonTask> tasks(3);
  for (std::uint32_t t = 0; t < 3; ++t) ASSERT_TRUE(tasks[t].init(app, t));
  run_rounds(tasks, 300);

  std::vector<serial::Bytes> payloads;
  for (auto& t : tasks) payloads.push_back(t.final_payload());
  const auto x = assemble_solution(n, 3, payloads);

  PoissonConfig pc;
  pc.n = n;
  pc.rhs_kind = 1;
  pc.rhs_seed = 4242;
  jacepp::Rng rng(4242);
  linalg::Vector exact(n * n);
  for (double& v : exact) v = rng.uniform(-1.0, 1.0);
  EXPECT_LT(linalg::distance_inf(x, exact), 1e-5);
}

TEST(BlockTask, OverlapConvergesFasterPerRound) {
  const std::uint32_t n = 24;
  auto plain_app = make_app(n, 4, 0);
  auto overlap_app = make_app(n, 4, 2);
  std::vector<PoissonTask> plain(4);
  std::vector<PoissonTask> overlapped(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(plain[t].init(plain_app, t));
    ASSERT_TRUE(overlapped[t].init(overlap_app, t));
  }
  run_rounds(plain, 40);
  run_rounds(overlapped, 40);
  EXPECT_LT(assembled_residual(overlapped, n), assembled_residual(plain, n));
}

TEST(BlockTask, BoundaryExchangeIsExactlyNComponents) {
  const std::uint32_t n = 16;
  for (const std::uint32_t overlap : {0u, 1u, 2u}) {
    auto app = make_app(n, 4, overlap);
    PoissonTask task;
    ASSERT_TRUE(task.init(app, 1));  // interior task: two neighbours
    task.iterate();
    const auto out = task.outgoing();
    ASSERT_EQ(out.size(), 2u);
    for (const auto& o : out) {
      serial::Reader reader(o.payload);
      EXPECT_EQ(reader.f64_vector().size(), n)
          << "overlap=" << overlap << " — exchanged data must stay n";
    }
  }
}

TEST(BlockTask, EdgeTasksHaveOneNeighbour) {
  auto app = make_app(16, 4);
  PoissonTask first;
  PoissonTask last;
  ASSERT_TRUE(first.init(app, 0));
  ASSERT_TRUE(last.init(app, 3));
  first.iterate();
  last.iterate();
  const auto out_first = first.outgoing();
  const auto out_last = last.outgoing();
  ASSERT_EQ(out_first.size(), 1u);
  EXPECT_EQ(out_first[0].to_task, 1u);
  ASSERT_EQ(out_last.size(), 1u);
  EXPECT_EQ(out_last[0].to_task, 2u);
}

TEST(BlockTask, CheckpointRestoreRoundTrip) {
  const std::uint32_t n = 16;
  auto app = make_app(n, 4);
  std::vector<PoissonTask> tasks(4);
  for (std::uint32_t t = 0; t < 4; ++t) ASSERT_TRUE(tasks[t].init(app, t));
  run_rounds(tasks, 10);

  const auto snapshot = tasks[1].checkpoint();
  const auto x_before = tasks[1].x_ext();

  PoissonTask replacement;
  ASSERT_TRUE(replacement.init(app, 1));
  ASSERT_TRUE(replacement.restore(snapshot));
  EXPECT_EQ(replacement.x_ext(), x_before);
  EXPECT_DOUBLE_EQ(replacement.local_error(), tasks[1].local_error());
}

TEST(BlockTask, RestoredTaskKeepsItsInformativeCount) {
  // The Eq. (4) count is part of the checkpoint, like the iteration count, so
  // a replacement reports the iterations its predecessor ran with fresh data
  // and keeps counting from there.
  auto app = make_app(16, 4);
  std::vector<PoissonTask> tasks(4);
  for (std::uint32_t t = 0; t < 4; ++t) ASSERT_TRUE(tasks[t].init(app, t));
  run_rounds(tasks, 10);
  const std::uint64_t informative = tasks[1].informative_iterations();
  ASSERT_GT(informative, 0u);

  PoissonTask replacement;
  ASSERT_TRUE(replacement.init(app, 1));
  ASSERT_TRUE(replacement.restore(tasks[1].checkpoint()));
  EXPECT_EQ(replacement.informative_iterations(), informative);
  EXPECT_EQ(replacement.iterations_done(), tasks[1].iterations_done());

  // A line it has not seen makes the next iteration informative, counted on
  // top of the restored count.
  tasks[0].iterate();
  for (const auto& out : tasks[0].outgoing()) {
    if (out.to_task == 1) replacement.on_data(0, out.payload);
  }
  replacement.iterate();
  ASSERT_TRUE(replacement.error_is_informative());
  EXPECT_EQ(replacement.informative_iterations(), informative + 1);
}

TEST(BlockTask, RestoredTaskContinuesConverging) {
  const std::uint32_t n = 16;
  auto app = make_app(n, 4);
  std::vector<PoissonTask> tasks(4);
  for (std::uint32_t t = 0; t < 4; ++t) ASSERT_TRUE(tasks[t].init(app, t));
  run_rounds(tasks, 15);

  // Replace task 2 with a restored copy mid-run; convergence must continue.
  const auto snapshot = tasks[2].checkpoint();
  PoissonTask replacement;
  ASSERT_TRUE(replacement.init(app, 2));
  ASSERT_TRUE(replacement.restore(snapshot));
  tasks[2] = std::move(replacement);

  run_rounds(tasks, 250);
  EXPECT_LT(assembled_residual(tasks, n), 1e-7);
}

/// `state`, a PoissonTask checkpoint, with vector `field` (0 x_ext,
/// 1 owned_prev, 2 lower boundary, 3 upper boundary) resized by `delta`.
serial::Bytes reshaped_state(const serial::Bytes& state, std::size_t field,
                             int delta) {
  serial::Reader r(state);
  std::vector<linalg::Vector> vectors(4);
  for (auto& v : vectors) v = r.f64_vector<linalg::Vector>();
  const std::uint64_t informative = r.u64();
  const double local_error = r.f64();
  const std::uint64_t iterations = r.u64();
  EXPECT_TRUE(r.ok() && r.exhausted());
  vectors[field].resize(vectors[field].size() + delta, 0.5);
  serial::Writer w;
  for (const auto& v : vectors) w.f64_vector(v);
  w.u64(informative);
  w.f64(local_error);
  w.u64(iterations);
  return w.take();
}

TEST(BlockTask, RestoreRefusesMisshapedState) {
  // The state comes from a backup peer. One whose vectors do not have the
  // block's shapes is refused and leaves the task as it was; iterate() would
  // otherwise index past the short ones.
  auto app = make_app(16, 4);
  std::vector<PoissonTask> tasks(4);
  for (std::uint32_t t = 0; t < 4; ++t) ASSERT_TRUE(tasks[t].init(app, t));
  run_rounds(tasks, 5);
  PoissonTask& task = tasks[1];  // a middle block: both boundaries in use
  const serial::Bytes before = task.checkpoint();
  for (std::size_t field = 0; field < 4; ++field) {
    for (const int delta : {-1, +1}) {
      EXPECT_FALSE(task.restore(reshaped_state(before, field, delta)))
          << "field " << field << ", delta " << delta;
      EXPECT_EQ(task.checkpoint(), before);
    }
  }
  EXPECT_TRUE(task.restore(reshaped_state(before, 0, 0)));
  EXPECT_EQ(task.checkpoint(), before);
}

TEST(BlockTask, CheckpointBytesGolden) {
  // The checkpoint() encoding of a middle block with overlap, pinned by size
  // and CRC-32. With overlap, x_ext and owned_prev differ in length, the two
  // boundaries carry different lines, and the informative and iteration
  // counts differ, so reordering any field of the state changes these bytes.
  // A backup holder keeps such bytes across versions, so the layout must not
  // move silently. The CRC was re-pinned (size unchanged) when CG's
  // reductions moved to the 4-lane order, and both were re-pinned when the
  // two boundary tags gave way to the informative count.
  auto app = make_app(6, 3, /*overlap_lines=*/1, /*rhs_kind=*/1);
  std::vector<PoissonTask> tasks(3);
  for (std::uint32_t t = 0; t < 3; ++t) ASSERT_TRUE(tasks[t].init(app, t));
  for (std::uint64_t round = 0; round < 4; ++round) {
    for (auto& t : tasks) t.iterate();
    for (std::uint32_t i = 0; i < 3; ++i) {
      for (auto& out : tasks[i].outgoing()) {
        tasks[out.to_task].on_data(i, out.payload);
      }
    }
  }
  tasks[1].iterate();
  const serial::Bytes state = tasks[1].checkpoint();
  EXPECT_EQ(state.size(), 412u);
  EXPECT_EQ(serial::crc32(state), 0x26a4b911u);
}

/// A boundary line as outgoing() encodes it, followed by `trailing` bytes.
serial::Bytes line_payload(const std::vector<double>& values,
                           const serial::Bytes& trailing = {}) {
  serial::Writer w;
  w.f64_vector(values);
  serial::Bytes bytes = w.take();
  bytes.insert(bytes.end(), trailing.begin(), trailing.end());
  return bytes;
}

/// The lower boundary line a task holds, read from its checkpoint bytes
/// (the state's third field).
std::vector<double> held_lower_line(const PoissonTask& task) {
  const serial::Bytes state = task.checkpoint();
  serial::Reader r(state);
  (void)r.f64_vector();  // x_ext
  (void)r.f64_vector();  // owned_prev
  std::vector<double> line = r.f64_vector();
  EXPECT_TRUE(r.ok());
  return line;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(BlockTask, MalformedDataDropped) {
  auto app = make_app(16, 2);
  PoissonTask task;
  ASSERT_TRUE(task.init(app, 0));
  task.iterate();
  const double before = task.local_error();
  const serial::Bytes state = task.checkpoint();
  // A wrong length, garbage bytes and a line one byte short are refused, and
  // none of them touches the held line.
  serial::Bytes truncated = line_payload(std::vector<double>(16, 1.0));
  truncated.pop_back();
  const serial::Bytes refused[] = {line_payload({1.0, 2.0}),
                                   serial::Bytes{0xff, 0x03, 0x01},
                                   truncated};
  for (std::size_t i = 0; i < std::size(refused); ++i) {
    task.on_data(1, refused[i]);
    EXPECT_EQ(task.checkpoint(), state) << "payload " << i;
  }
  task.iterate();
  // No fresh (valid) data arrived: the spin path keeps the error untouched.
  EXPECT_DOUBLE_EQ(task.local_error(), before);
  EXPECT_FALSE(task.error_is_informative());
}

TEST(BlockTask, LineFreshnessComparesValues) {
  // Freshness compares values element by element, and a taken line's bits
  // replace the held line's whether or not it was fresh.
  const std::size_t n = 16;
  auto app = make_app(n, 2);
  const auto fresh_after = [&](PoissonTask& task,
                               const serial::Bytes& payload) {
    task.on_data(0, payload);
    task.iterate();
    return task.error_is_informative();
  };

  // The compare runs four doubles a step, then element by element: for an
  // odd n (a remainder after the steps) and an even one, a lone NaN is
  // fresh and a lone -0 over +0 is not, at every position, each taken
  // bit for bit.
  for (const std::size_t side : {std::size_t{11}, std::size_t{16}}) {
    const auto side_app = make_app(static_cast<std::uint32_t>(side), 2);
    for (std::size_t pos = 0; pos < side; ++pos) {
      PoissonTask task;
      ASSERT_TRUE(task.init(side_app, 1));
      task.iterate();
      std::vector<double> line(side, 0.0);
      line[pos] = -0.0;
      EXPECT_FALSE(fresh_after(task, line_payload(line)))
          << "n=" << side << " -0 at " << pos;
      EXPECT_TRUE(same_bits(held_lower_line(task), line));
      line[pos] = std::numeric_limits<double>::quiet_NaN();
      EXPECT_TRUE(fresh_after(task, line_payload(line)))
          << "n=" << side << " NaN at " << pos;
      EXPECT_TRUE(same_bits(held_lower_line(task), line));
    }
  }

  // The held line starts at +0: a line of -0 is not fresh, yet it is held.
  PoissonTask signed_zero;
  ASSERT_TRUE(signed_zero.init(app, 1));
  signed_zero.iterate();
  const std::vector<double> minus_zero(n, -0.0);
  EXPECT_FALSE(fresh_after(signed_zero, line_payload(minus_zero)));
  EXPECT_TRUE(same_bits(held_lower_line(signed_zero), minus_zero));

  // A NaN never compares equal, so the same line is fresh on every arrival.
  PoissonTask nan;
  ASSERT_TRUE(nan.init(app, 1));
  nan.iterate();
  std::vector<double> with_nan(n, 0.0);
  with_nan[3] = std::numeric_limits<double>::quiet_NaN();
  for (int arrival = 0; arrival < 3; ++arrival) {
    EXPECT_TRUE(fresh_after(nan, line_payload(with_nan))) << arrival;
  }
  EXPECT_TRUE(same_bits(held_lower_line(nan), with_nan));

  // Bytes after the line's n doubles are ignored.
  PoissonTask trailing;
  ASSERT_TRUE(trailing.init(app, 1));
  trailing.iterate();
  const std::vector<double> line(n, 0.25);
  EXPECT_TRUE(fresh_after(trailing, line_payload(line, {0xab, 0xcd, 0x01})));
  EXPECT_TRUE(same_bits(held_lower_line(trailing), line));
}

TEST(BlockTask, StarvedIterationsChargeFullCostButAreUninformative) {
  auto app = make_app(16, 2);
  PoissonTask task;
  ASSERT_TRUE(task.init(app, 0));
  const double first = task.iterate();   // real solve
  EXPECT_TRUE(task.error_is_informative());
  const double spin = task.iterate();    // starved: no new data
  EXPECT_FALSE(task.error_is_informative());
  // The paper's implementation recomputes every iteration whether or not an
  // update arrived, so the starved iteration charges comparable virtual cost
  // — but it must not move the iterate or inform convergence detection.
  EXPECT_GT(spin, 0.0);
  EXPECT_LE(spin, first * 2.0 + 1.0);
  EXPECT_EQ(task.iterations_done(), 2u);
}

TEST(BlockTask, IdenticalContentDoesNotCountAsFresh) {
  auto app = make_app(16, 2);
  PoissonTask a;
  PoissonTask b;
  ASSERT_TRUE(a.init(app, 0));
  ASSERT_TRUE(b.init(app, 1));
  a.iterate();
  const auto out = a.outgoing();
  ASSERT_EQ(out.size(), 1u);
  b.iterate();
  b.on_data(0, out[0].payload);
  b.iterate();
  EXPECT_TRUE(b.error_is_informative());  // content changed from zeros
  b.on_data(0, out[0].payload);           // same content re-sent
  b.iterate();
  EXPECT_FALSE(b.error_is_informative());
}

TEST(BlockTask, NewestArrivalWins) {
  // The last line to arrive is the one held, whatever the sender's progress:
  // a neighbour that restarted from an older checkpoint resends an older
  // iterate, which is still its freshest data (paper §4).
  const std::size_t n = 16;
  auto app = make_app(n, 2);
  PoissonTask task;
  ASSERT_TRUE(task.init(app, 1));
  task.iterate();
  const std::vector<double> later(n, 0.75);
  const std::vector<double> earlier(n, 0.5);
  task.on_data(0, line_payload(later));
  task.on_data(0, line_payload(earlier));
  EXPECT_TRUE(same_bits(held_lower_line(task), earlier));
  task.iterate();
  EXPECT_TRUE(task.error_is_informative());
  // Re-sent after the restart, the later line is fresh again.
  task.on_data(0, line_payload(later));
  EXPECT_TRUE(same_bits(held_lower_line(task), later));
  task.iterate();
  EXPECT_TRUE(task.error_is_informative());
}

TEST(BlockTask, BlockRhsMatchesGlobalRhsSlice) {
  // rhs_kind 0 evaluates f on the block's own rows; the values must be the
  // bits of the same rows of the global right-hand side, for every block of
  // every split the partition allows.
  for (const std::uint32_t n : {2u, 3u, 96u, 160u}) {
    PoissonConfig pc;
    pc.n = n;
    const linalg::Vector global = global_rhs(pc);
    for (const std::uint32_t tasks : {1u, 2u, 8u, 80u}) {
      for (const std::uint32_t overlap : {0u, 1u, 2u}) {
        const auto app = make_app(n, tasks, overlap);
        for (std::uint32_t id = 0; id < tasks; ++id) {
          PoissonTask task;
          if (!task.init(app, id)) break;  // a split the partition refuses
          const auto& blk = task.block();
          ASSERT_EQ(task.b_ext().size(), blk.ext_size());
          EXPECT_EQ(std::memcmp(task.b_ext().data(), global.data() + blk.ext_lo,
                                blk.ext_size() * sizeof(double)),
                    0)
              << "n=" << n << " tasks=" << tasks << " overlap=" << overlap
              << " task=" << id;
        }
      }
    }
  }
}

TEST(BlockTask, AssembleSolutionSkipsMissingPayloads) {
  const std::uint32_t n = 8;
  std::vector<serial::Bytes> payloads(2);
  serial::Writer w;
  w.f64_vector(linalg::Vector(32, 1.5));
  payloads[0] = w.take();
  // payloads[1] left empty.
  const auto x = assemble_solution(n, 2, payloads);
  EXPECT_DOUBLE_EQ(x[0], 1.5);
  EXPECT_DOUBLE_EQ(x[31], 1.5);
  EXPECT_DOUBLE_EQ(x[32], 0.0);
}

}  // namespace
}  // namespace jacepp::poisson
