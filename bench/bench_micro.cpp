// Substrate microbenchmarks (google-benchmark): the kernels and runtime
// primitives everything else is built on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/csr.hpp"
#include "linalg/fused.hpp"
#include "linalg/kernels.hpp"
#include "linalg/simd.hpp"
#include "core/daemon.hpp"
#include "core/last_heard.hpp"
#include "core/messages.hpp"
#include "net/env.hpp"
#include "net/message.hpp"
#include "poisson/block_task.hpp"
#include "poisson/poisson.hpp"
#include "serial/serial.hpp"
#include "sim/event_queue.hpp"
#include "sim/world.hpp"
#include "support/queue.hpp"
#include "support/rng.hpp"
#include "support/assert.hpp"

namespace {

using namespace jacepp;

void BM_SpMV(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = poisson::assemble_laplacian(n);
  linalg::Vector x(n * n, 1.0);
  linalg::Vector y(n * n);
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_SpMV)->Arg(32)->Arg(64)->Arg(128);

void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Vector x(n, 0.5);
  linalg::Vector y(n, 2.0);
  for (auto _ : state) {
    const double d = linalg::dot(x, y);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Dot)->Arg(4096)->Arg(65536);

// Unfused residual evaluation: r = b - Ax then ||r|| — three passes over the
// vectors. Pairs with BM_SpmvResidualFused below (one pass).
void BM_SpmvResidualUnfused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = poisson::assemble_laplacian(n);
  linalg::Vector x(n * n, 1.0);
  linalg::Vector b(n * n, 2.0);
  linalg::Vector ax(n * n);
  linalg::Vector r(n * n);
  for (auto _ : state) {
    a.multiply(x, ax);
    linalg::residual(b, ax, r);
    const double norm = linalg::norm2(r);
    benchmark::DoNotOptimize(norm);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_SpmvResidualUnfused)->Arg(32)->Arg(64)->Arg(128);

void BM_SpmvResidualFused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = poisson::assemble_laplacian(n);
  linalg::Vector x(n * n, 1.0);
  linalg::Vector b(n * n, 2.0);
  linalg::Vector r(n * n);
  for (auto _ : state) {
    const double norm = linalg::spmv_residual_norm2(a, x, b, r);
    benchmark::DoNotOptimize(norm);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_SpmvResidualFused)->Arg(32)->Arg(64)->Arg(128);

void BM_ConjugateGradient(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto mp = poisson::make_manufactured_problem(n, 7);
  linalg::CgOptions options;
  options.tolerance = 1e-8;
  options.max_iterations = 10 * n * n;
  for (auto _ : state) {
    linalg::Vector x;
    const auto result =
        linalg::conjugate_gradient(mp.problem.a, mp.problem.b, x, options);
    benchmark::DoNotOptimize(result.residual_norm);
  }
}
BENCHMARK(BM_ConjugateGradient)->Arg(16)->Arg(32)->Arg(64);

// Same solve with the fused kernels disabled (CgOptions::fused = false): the
// pre-fusion hot path, kept as the ablation baseline.
void BM_ConjugateGradientUnfused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto mp = poisson::make_manufactured_problem(n, 7);
  linalg::CgOptions options;
  options.tolerance = 1e-8;
  options.max_iterations = 10 * n * n;
  options.fused = false;
  for (auto _ : state) {
    linalg::Vector x;
    const auto result =
        linalg::conjugate_gradient(mp.problem.a, mp.problem.b, x, options);
    benchmark::DoNotOptimize(result.residual_norm);
  }
}
BENCHMARK(BM_ConjugateGradientUnfused)->Arg(16)->Arg(32)->Arg(64);

// One inner solve on a task's local Poisson block, as the deployments run
// it: range(0) is the grid side n, range(1) the block's grid lines, and the
// solve starts cold and stops at 1e-8 or 400 iterations. Fused runs the
// banded three-pass iteration; unfused the CSR multiply and one BLAS-1 pass
// per step, its bit-identical oracle. `kernels` is the build that runs
// (linalg/kernels.hpp); each row's label names it.
void cg_poisson_block(benchmark::State& state, bool fused,
                      const linalg::Kernels& kernels = linalg::kernels()) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lines = static_cast<std::size_t>(state.range(1));
  const auto a = poisson::assemble_local_laplacian(n, 0, lines * n);
  linalg::Vector b(a.rows());
  Rng rng(11);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  linalg::CgOptions options;
  options.tolerance = 1e-8;
  options.max_iterations = 400;
  options.fused = fused;
  linalg::Vector x;
  std::size_t iterations = 0;
  for (auto _ : state) {
    x.assign(a.rows(), 0.0);
    const auto result = linalg::conjugate_gradient(kernels, a, b, x, options);
    iterations += result.iterations;
    benchmark::DoNotOptimize(result.residual_norm);
  }
  state.SetLabel(linalg::simd::level_name(kernels.level));
  state.counters["ns_per_row_iter"] = benchmark::Counter(
      static_cast<double>(iterations) * static_cast<double>(a.rows()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_CgPoissonBlock(benchmark::State& state) {
  cg_poisson_block(state, true);
}
BENCHMARK(BM_CgPoissonBlock)->Args({96, 1})->Args({96, 2})->Args({160, 20});

// The same solve on the baseline build, called directly: on a CPU that runs
// the AVX2 build, the pair of rows times both builds.
void BM_CgPoissonBlockBaseline(benchmark::State& state) {
  cg_poisson_block(state, true, linalg::baseline_kernels());
}
BENCHMARK(BM_CgPoissonBlockBaseline)->Args({160, 20});

void BM_CgPoissonBlockUnfused(benchmark::State& state) {
  cg_poisson_block(state, false);
}
BENCHMARK(BM_CgPoissonBlockUnfused)
    ->Args({96, 1})
    ->Args({96, 2})
    ->Args({160, 20});

void BM_SerializeBoundaryLine(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Vector line(n, 1.25);
  for (auto _ : state) {
    serial::Writer w;
    w.f64_vector(line);
    auto bytes = w.take();
    serial::Reader r(bytes);
    auto decoded = r.f64_vector();
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(double)));
}
BENCHMARK(BM_SerializeBoundaryLine)->Arg(96)->Arg(2000)->Arg(5000);

void BM_CheckpointRoundTrip(benchmark::State& state) {
  poisson::PoissonConfig pc;
  pc.n = static_cast<std::uint32_t>(state.range(0));
  core::AppDescriptor app;
  app.task_count = 4;
  app.config = poisson::encode_config(pc);
  poisson::PoissonTask task;
  JACEPP_CHECK(task.init(app, 1), "BM_CheckpointRoundTrip: config refused");
  task.iterate();
  for (auto _ : state) {
    auto snapshot = task.checkpoint();
    poisson::PoissonTask replica;
    JACEPP_CHECK(replica.init(app, 1), "BM_CheckpointRoundTrip: config refused");
    if (!replica.restore(snapshot)) state.SkipWithError("restore refused");
    benchmark::DoNotOptimize(replica.x_ext().data());
  }
}
BENCHMARK(BM_CheckpointRoundTrip)->Arg(32)->Arg(96);

void BM_EventQueue(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < batch; ++i) {
      q.schedule(rng.next_double(), [] {});
    }
    double now = 0;
    while (!q.empty()) q.pop(&now)();
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(10000);

// Cancel-heavy load: the periodic-timer reschedule pattern that triggers the
// eager tombstone purge. Every other event is cancelled before draining, so
// one round exercises push, cancel (with purges) and pop together.
void BM_EventQueueCancel(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      ids.push_back(q.schedule(rng.next_double(), [] {}));
    }
    for (std::size_t i = 0; i < batch; i += 2) q.cancel(ids[i]);
    double now = 0;
    while (!q.empty()) q.pop(&now)();
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueCancel)->Arg(1000)->Arg(10000);

// Sharded-scheduler micro-costs (DESIGN.md §12). Same event batch pushed
// through one queue vs hash-partitioned across N shard queues: the work is
// identical, but each heap is ~1/N the size, so sift depth shrinks — the
// serial-side win bench_scale measures at the 10k-daemon tier.
void BM_EventQueueShardedPushPop(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kEvents = 10000;
  Rng rng(5);
  std::vector<std::pair<double, std::uint64_t>> events;  // (time, node id)
  events.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    events.emplace_back(rng.next_double(), rng.next_u64());
  }
  for (auto _ : state) {
    std::vector<sim::EventQueue> queues(shards);
    for (const auto& [t, id] : events) {
      queues[sim::SimWorld::shard_of(id, shards)].schedule(t, [] {});
    }
    double now = 0;
    for (auto& q : queues) {
      while (!q.empty()) q.pop(&now)();
    }
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_EventQueueShardedPushPop)->Arg(1)->Arg(4)->Arg(8);

// The between-rounds mailbox merge: concatenate per-shard outboxes (each
// already in send order), stable-sort pointers by arrival, and re-schedule
// into destination queues — the serial coordination cost every round pays.
void BM_ShardOutboxMerge(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kFrames = 10000;
  struct Frame {
    double arrival;
    std::uint32_t dest_shard;
  };
  Rng rng(6);
  std::vector<std::vector<Frame>> outboxes(shards);
  for (std::size_t i = 0; i < kFrames; ++i) {
    outboxes[i % shards].push_back(
        Frame{rng.next_double(), static_cast<std::uint32_t>(rng.index(shards))});
  }
  for (auto _ : state) {
    std::vector<const Frame*> merged;
    merged.reserve(kFrames);
    for (const auto& outbox : outboxes) {
      for (const Frame& f : outbox) merged.push_back(&f);
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Frame* a, const Frame* b) {
                       return a->arrival < b->arrival;
                     });
    std::vector<sim::EventQueue> queues(shards);
    for (const Frame* f : merged) {
      queues[f->dest_shard].schedule(f->arrival, [] {});
    }
    benchmark::DoNotOptimize(queues.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFrames));
}
BENCHMARK(BM_ShardOutboxMerge)->Arg(2)->Arg(4)->Arg(8);

// The merge the round engine actually runs now (DESIGN.md §12): each outbox
// is sorted in place by (arrival, seq) inside the round, and the barrier
// walks the sorted runs with a cursor heap keyed (arrival, shard) — emitting
// the exact order of the concat + stable_sort above while reusing every
// buffer across rounds. This version also drains the destination queues each
// iteration (to keep them bounded), so it carries pop costs the baseline
// skips; the pairing is conservative. meta.ablation_pairs.outbox_merge in
// BENCH_micro.json labels the pair.
void BM_OutboxKWayMerge(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kFrames = 10000;
  struct Frame {
    double arrival;
    std::uint32_t dest_shard;
    std::uint64_t seq;
  };
  Rng rng(6);  // seed 6: identical frame set to BM_ShardOutboxMerge
  std::vector<std::vector<Frame>> outboxes(shards);
  for (std::size_t i = 0; i < kFrames; ++i) {
    auto& box = outboxes[i % shards];
    box.push_back(Frame{rng.next_double(),
                        static_cast<std::uint32_t>(rng.index(shards)),
                        box.size()});
  }
  struct Cursor {
    double arrival;
    std::uint32_t shard;
    std::size_t index;
  };
  const auto later = [](const Cursor& a, const Cursor& b) {
    if (a.arrival != b.arrival) return a.arrival > b.arrival;
    return a.shard > b.shard;
  };
  std::vector<std::vector<Frame>> scratch(shards);
  std::vector<Cursor> heap;
  heap.reserve(shards);
  std::vector<sim::EventQueue> queues(shards);
  for (auto _ : state) {
    for (std::size_t s = 0; s < shards; ++s) {
      scratch[s] = outboxes[s];  // capacity reused after the first iteration
      std::sort(scratch[s].begin(), scratch[s].end(),
                [](const Frame& a, const Frame& b) {
                  if (a.arrival != b.arrival) return a.arrival < b.arrival;
                  return a.seq < b.seq;
                });
    }
    heap.clear();
    for (std::size_t s = 0; s < shards; ++s) {
      if (!scratch[s].empty()) {
        heap.push_back(Cursor{scratch[s].front().arrival,
                              static_cast<std::uint32_t>(s), 0});
      }
    }
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const Cursor cur = heap.back();
      heap.pop_back();
      const Frame& frame = scratch[cur.shard][cur.index];
      queues[frame.dest_shard].schedule(frame.arrival, [] {});
      if (cur.index + 1 < scratch[cur.shard].size()) {
        heap.push_back(Cursor{scratch[cur.shard][cur.index + 1].arrival,
                              cur.shard, cur.index + 1});
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
    double now = 0;
    for (auto& q : queues) {
      while (!q.empty()) q.pop(&now)();
    }
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFrames));
}
BENCHMARK(BM_OutboxKWayMerge)->Arg(2)->Arg(4)->Arg(8);

void BM_MessageEncodeDecode(benchmark::State& state) {
  core::AppRegister reg;
  reg.app_id = 1;
  reg.version = 5;
  reg.spawner = net::Stub{1, 1, net::EntityKind::Spawner};
  for (std::uint32_t t = 0; t < 80; ++t) {
    reg.tasks.push_back(
        core::TaskEntry{t, net::Stub{t + 2, 1, net::EntityKind::Daemon}});
  }
  core::msg::RegisterUpdate update{reg};
  for (auto _ : state) {
    const auto m = net::make_message(update);
    const auto decoded = net::payload_of<core::msg::RegisterUpdate>(m);
    benchmark::DoNotOptimize(decoded.reg.version);
  }
}
BENCHMARK(BM_MessageEncodeDecode);

/// Env that drops everything an actor asks of it.
class NullEnv : public net::Env {
 public:
  [[nodiscard]] double now() const override { return 0.0; }
  [[nodiscard]] net::Stub self() const override {
    return net::Stub{2, 1, net::EntityKind::Daemon};
  }
  void send(const net::Stub&, net::Message) override {}
  net::TimerId schedule(double, std::function<void()>) override { return 0; }
  void cancel(net::TimerId) override {}
  void compute(std::function<double()>, std::function<void()>) override {}
  Rng& rng() override { return rng_; }
  void shutdown_self() override {}

 private:
  Rng rng_{1};
};

// One message's whole trip into an actor: make it, copy it (the transport's
// capture), and dispatch the copy through the receiving class's table. Arg 0
// is a HeartbeatAck, whose body is empty; 768 is a TaskData carrying one
// n = 96 halo line (96 doubles), decoded into the handler's payload.
void BM_MessageRoundTrip(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  NullEnv env;
  core::Daemon daemon({net::Stub{1, 0, net::EntityKind::SuperPeer}});
  daemon.on_start(env);
  core::msg::TaskData data;
  const serial::Bytes line(bytes, 0x5a);
  data.payload = line;
  for (auto _ : state) {
    const net::Message m = bytes == 0
                               ? net::make_message(core::msg::HeartbeatAck{})
                               : net::make_message(data);
    const net::Message capture = m;
    benchmark::DoNotOptimize(
        core::Daemon::table().dispatch(daemon, capture, env));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MessageRoundTrip)->Arg(0)->Arg(768);

void BM_BlockingQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    BlockingQueue<int> q;
    for (int i = 0; i < 1000; ++i) q.push(i);
    int sum = 0;
    for (int i = 0; i < 1000; ++i) sum += *q.try_pop();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_BlockingQueueThroughput);

// Super-peer heartbeat handling over one whole period (DESIGN.md §13): every
// live daemon refreshes once, then one sweep collects the daemons that
// crashed. Arrivals come in the order cp-100k's super-peers see them: each
// heartbeat crosses the 4-shard round merge, so a period is four ascending
// runs of ids, one per simulator shard. Each period a different
// kSweepCrashed daemons miss their heartbeat; the sweep collects them and
// they re-register, keeping the fleet at n.
//   Linear: the reference, the super-peer before §13 — a std::map Register
//           whose entry each heartbeat refreshes, swept by a full walk.
//   Index:  core::LastHeardIndex — one hash lookup per heartbeat, and a sweep
//           that pops only the expired.
constexpr std::size_t kSweepCrashed = 10;
constexpr std::size_t kArrivalShards = 4;

/// One period's heartbeat arrivals for a fleet of `n` daemons.
std::vector<net::Stub> heartbeat_arrivals(std::size_t n) {
  std::vector<net::Stub> order;
  order.reserve(n);
  for (std::uint32_t s = 0; s < kArrivalShards; ++s) {
    for (net::NodeId id = 1; id <= n; ++id) {
      if (sim::SimWorld::shard_of(id, kArrivalShards) == s) {
        order.push_back(net::Stub{id, 1, net::EntityKind::Daemon});
      }
    }
  }
  return order;
}

/// True when the daemon at arrival position `i` misses period `period`.
bool misses_period(std::size_t i, std::size_t period, std::size_t n) {
  return i - (period * kSweepCrashed) % n < kSweepCrashed;
}

void BM_HeartbeatPeriodLinear(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<net::Stub> arrivals = heartbeat_arrivals(n);
  std::map<net::Stub, double> last_heard;
  for (const net::Stub& stub : arrivals) last_heard.emplace(stub, 0.0);
  std::vector<net::Stub> expired;
  std::size_t period = 0;
  for (auto _ : state) {
    const auto now = static_cast<double>(++period);
    for (std::size_t i = 0; i < n; ++i) {
      if (misses_period(i, period, n)) continue;
      last_heard.find(arrivals[i])->second = now;
    }
    expired.clear();
    for (auto it = last_heard.begin(); it != last_heard.end();) {
      if (it->second < now - 0.5) {
        expired.push_back(it->first);
        it = last_heard.erase(it);
      } else {
        ++it;
      }
    }
    for (const net::Stub& stub : expired) last_heard.emplace(stub, now);
    benchmark::DoNotOptimize(expired.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HeartbeatPeriodLinear)
    ->Arg(1000)->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_HeartbeatPeriodIndex(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<net::Stub> arrivals = heartbeat_arrivals(n);
  core::LastHeardIndex<net::Stub> last_heard;
  for (const net::Stub& stub : arrivals) last_heard.touch(stub, 0.0);
  std::vector<net::Stub> expired;
  std::size_t period = 0;
  for (auto _ : state) {
    const auto now = static_cast<double>(++period);
    for (std::size_t i = 0; i < n; ++i) {
      if (misses_period(i, period, n)) continue;
      last_heard.refresh(arrivals[i], now);
    }
    expired.clear();
    last_heard.expire(now - 0.5,
                      [&](const net::Stub& stub) { expired.push_back(stub); });
    for (const net::Stub& stub : expired) last_heard.touch(stub, now);
    benchmark::DoNotOptimize(expired.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HeartbeatPeriodIndex)
    ->Arg(1000)->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_RngU64(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc ^= rng.next_u64();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngU64);

}  // namespace

BENCHMARK_MAIN();
