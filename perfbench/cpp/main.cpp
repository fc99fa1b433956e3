// Benchmark driver: runs one workload for a number of repetitions and prints
// one JSON object per line — a "rep" line per repetition, then a "summary"
// line. perfbench/run.py aggregates them; see perfbench/README.md.
//
//   perfbench --workload fig7-churn --seed 7 --reps 4
//   perfbench_traced --workload cp-100k --seed 7 --reps 1
//
// Every repetition runs the same deployment, built from a sub-seed of --seed.
// So the same --seed always yields the same inputs, repetitions do the same
// work step by step, and the traced binary given the untraced run's
// arguments replays the same deployments.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "linalg/simd.hpp"
#include "sim/world.hpp"
#include "support/logging.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RepResult;

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t reps = 1;
  double setup_burst = 0.0;  ///< seconds of set-up-only samples per repetition
};

/// A set-up burst takes at least this many samples, however long they take:
/// a cp-100k set-up takes about 0.25 s, a Poisson one 0.02-0.1 ms.
constexpr std::size_t kMinBurstSamples = 5;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--reps K] [--setup-burst S]\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--reps") {
      o.reps = std::strtoull(value, nullptr, 10);
    } else if (flag == "--setup-burst") {
      o.setup_burst = std::strtod(value, nullptr);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("--workload must be fig7-churn, solve-large or cp-100k");
  }
  if (o.reps == 0) usage("--reps must be positive");
  return o;
}

std::uint64_t sub_seed(std::uint64_t seed, std::size_t rep) {
  return jacepp::sim::mix64(seed * 0x9E3779B97F4A7C15ull + rep + 1);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void print_layers(const char* key, const perfbench::trace::Snapshot& s) {
  static const char* const kNames[] = {
      "run",        "codec.emit",      "codec.decode", "backup.store",
      "backup.materialize", "linalg.cg", "des.pop",   "des.schedule",
      "setup.add_node", "actor.super_peer", "actor.daemon", "link.enqueue",
      "link.next_wire_frame", "link.unpack_batch"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                perfbench::trace::kLayerCount);
  std::printf(", \"%s\": {", key);
  for (std::size_t i = 0; i < perfbench::trace::kLayerCount; ++i) {
    const auto& t = s.layers[i];
    std::printf("%s\"%s\": {\"calls\": %" PRIu64 ", \"total_s\": %.9f, "
                "\"self_s\": %.9f}",
                i ? ", " : "", kNames[i], t.calls, 1e-9 * static_cast<double>(t.total_ns),
                1e-9 * static_cast<double>(t.self_ns));
  }
  std::printf("}");
}

/// The run's spans and work counts, then the set-up's spans.
void print_trace(const perfbench::trace::Snapshot& s,
                 const perfbench::trace::Snapshot& setup) {
  print_layers("spans", s);
  print_layers("setup_spans", setup);
  const auto& c = s.counters;
  std::printf(", \"counts\": {\"emit_bytes\": %" PRIu64 ", \"emit_full\": %" PRIu64
              ", \"decode_bytes\": %" PRIu64 ", \"store_needs_full\": %" PRIu64
              ", \"materialize_failed\": %" PRIu64 ", \"cg_iterations\": %" PRIu64
              ", \"cg_flops\": %.17g, \"actor_messages\": %" PRIu64 "}",
              c.emit_bytes, c.emit_full, c.decode_bytes, c.store_needs_full,
              c.materialize_failed, c.cg_iterations, c.cg_flops,
              c.actor_messages);
}

void print_rep(std::size_t index, const RepResult& r) {
  std::printf("{\"type\": \"rep\", \"rep\": %zu, \"seed\": %" PRIu64
              ", \"ok\": %s, \"failure\": \"%s\", \"setup_s\": %.9f, "
              "\"wall_s\": %.9f, \"digest\": \"%016" PRIx64 "\"",
              index, r.seed, r.ok ? "true" : "false", r.failure.c_str(),
              r.setup_s, r.wall_s, r.digest);
  std::printf(", \"step_wall_s\": [");
  for (std::size_t i = 0; i < r.step_wall_s.size(); ++i) {
    std::printf("%s%.9f", i ? ", " : "", r.step_wall_s[i]);
  }
  std::printf("]");
  std::printf(", \"sim\": {\"sim_exec_s\": %.17g, \"events\": %" PRIu64
              ", \"rounds\": %" PRIu64 ", \"cross_shard_frames\": %" PRIu64
              ", \"shard_occupancy\": %.17g, \"outer_iterations\": %" PRIu64
              ", \"informative_iterations\": %" PRIu64 ", \"residual\": %.17g"
              ", \"restores_from_backup\": %" PRIu64
              ", \"restarts_from_zero\": %" PRIu64 ", \"disconnections\": %" PRIu64
              ", \"reservations_issued\": %zu, \"reservations_completed\": %zu"
              ", \"reserve_p50_ms\": %.17g, \"reserve_p95_ms\": %.17g"
              ", \"max_sp_share\": %.17g",
              r.sim_exec_s, r.events, r.rounds, r.cross_shard_frames,
              r.shard_occupancy, r.outer_iterations, r.informative_iterations,
              r.residual, r.restores_from_backup, r.restarts_from_zero,
              r.disconnections, r.reservations_issued, r.reservations_completed,
              r.reserve_p50_ms, r.reserve_p95_ms, r.max_sp_share);
  std::printf(", \"net_sent\": %" PRIu64 ", \"net_delivered\": %" PRIu64
              ", \"net_bytes_sent\": %" PRIu64 ", \"net_lost\": %" PRIu64
              ", \"link_coalesced\": %" PRIu64 ", \"link_dropped_data\": %" PRIu64
              ", \"link_batches\": %" PRIu64 ", \"link_wire_frames\": %" PRIu64
              ", \"link_wire_bytes\": %" PRIu64 ", \"task_iterations\": [",
              r.net_sent, r.net_delivered, r.net_bytes_sent, r.net_lost,
              r.link_coalesced, r.link_dropped_data, r.link_batches,
              r.link_wire_frames, r.link_wire_bytes);
  for (std::size_t i = 0; i < r.task_iterations.size(); ++i) {
    std::printf("%s%" PRIu64, i ? ", " : "", r.task_iterations[i]);
  }
  std::printf("]}");
  if (kTraced) {
    print_trace(perfbench::trace::collect(), perfbench::trace::setup_totals());
  }
  std::printf("}\n");
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Moves the constructing thread round the CPUs it may run on, one step
/// every kPeriod, for as long as the object lives. On a shared host a core
/// can run up to 1.6x slower for seconds at a time while another tenant
/// keeps its hyperthread sibling busy. The scheduler cannot see that, so a
/// run that stays on one core reads that core's luck; rotating makes every
/// run see every core. The workloads run on one thread, and the simulated
/// outputs do not depend on where it runs.
class CpuRotation {
 public:
  static constexpr std::chrono::milliseconds kPeriod{50};

  CpuRotation() : target_(pthread_self()) {
    if (pthread_getaffinity_np(target_, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
    if (cpus_.size() > 1) rotator_ = std::thread([this] { rotate(); });
  }

  ~CpuRotation() {
    if (!rotator_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    rotator_.join();
    pthread_setaffinity_np(target_, sizeof allowed_, &allowed_);
  }

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void rotate() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t k = 0; !wake_.wait_for(lock, kPeriod, [this] { return stop_; });
         ++k) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[k % cpus_.size()], &one);
      pthread_setaffinity_np(target_, sizeof one, &one);
    }
  }

  pthread_t target_;
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread rotator_;
};

}  // namespace

int main(int argc, char** argv) {
  // Pin the environment: every knob the workloads need is set in code, and
  // these variables would otherwise leak into library defaults.
  for (const char* name : {"JACEPP_SIM_SHARDS", "JACEPP_THREADS", "JACEPP_GRAIN",
                           "JACEPP_LOG_LEVEL"}) {
    unsetenv(name);
  }
  jacepp::set_log_level(jacepp::LogLevel::Warn);

  const Options o = parse(argc, argv);
  std::vector<double> setup_samples;
  std::size_t failed = 0;
  try {
    const CpuRotation rotation;
    const std::uint64_t deployment_seed = sub_seed(o.seed, 0);
    for (std::size_t i = 0; i < o.reps; ++i) {
      const double rep_start = now_s();
      // Set-up alone is sampled in a burst before each repetition (none when
      // --setup-burst is 0): for --setup-burst seconds, and at least
      // kMinBurstSamples times, each building the run's own deployment. A
      // burst gives one sample, its fastest set-up: like a step of the run,
      // a set-up the host slowed is not the code's time. The burst's first
      // build is not timed: it faults back in the memory the last
      // repetition gave back, which costs cp-100k about 0.1 s.
      if (o.setup_burst > 0.0) {
        perfbench::setup_only(o.workload, deployment_seed);
        double fastest = std::numeric_limits<double>::infinity();
        for (std::size_t count = 0;
             count < kMinBurstSamples || now_s() < rep_start + o.setup_burst; ++count) {
          fastest = std::min(fastest, perfbench::setup_only(o.workload, deployment_seed));
        }
        setup_samples.push_back(fastest);
      }
      if (kTraced) perfbench::trace::reset();
      const RepResult r = perfbench::run_workload(o.workload, deployment_seed);
      if (!r.ok) ++failed;
      print_rep(i, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // No bursts (the traced pass) leaves no samples; 0 then means "not measured".
  std::sort(setup_samples.begin(), setup_samples.end());
  const std::size_t mid = setup_samples.size() / 2;
  const double setup_median =
      setup_samples.empty()         ? 0.0
      : setup_samples.size() % 2 == 1 ? setup_samples[mid]
                                      : 0.5 * (setup_samples[mid - 1] + setup_samples[mid]);
  std::printf("{\"type\": \"summary\", \"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"traced\": %s, \"failed\": %zu, \"peak_rss_mb\": %.6f"
              ", \"setup_samples\": %zu, \"setup_s\": %.9f",
              o.workload.c_str(), o.seed, kTraced ? "true" : "false", failed,
              peak_rss_mb(), setup_samples.size(), setup_median);
  std::printf(", \"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"hardware_threads\": %u, \"simd_detected\": \"%s\", "
              "\"simd_active\": \"%s\"}\n",
              PERFBENCH_BUILD_TYPE, __VERSION__,
              std::thread::hardware_concurrency(),
              jacepp::linalg::simd::level_name(
                  jacepp::linalg::simd::detected_level()),
              jacepp::linalg::simd::level_name(
                  jacepp::linalg::simd::active_level()));
  return failed == 0 ? 0 : 1;
}
