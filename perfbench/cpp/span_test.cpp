// Self-time arithmetic checks for trace.hpp, on a fake clock and on real
// wrapped calls (BackupStore::store_frame, which decodes the frame through
// checkpoint::decode_frame). Run by tests/test_perfbench.py; exits non-zero
// on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/backup.hpp"
#include "core/checkpoint.hpp"
#include "trace.hpp"

using perfbench::trace::Layer;
using perfbench::trace::Snapshot;
using perfbench::trace::SpanStack;

namespace {

int g_checks = 0;

void check(bool condition, const char* what) {
  ++g_checks;
  if (!condition) {
    std::fprintf(stderr, "span_test FAILED: %s\n", what);
    std::exit(1);
  }
}

void nested_on_fake_clock() {
  // run [0,100) > store [10,60) > decode [20,45); run > cg [70,90)
  SpanStack s;
  s.enter(Layer::Run, 0);
  s.enter(Layer::BackupStore, 10);
  s.enter(Layer::CodecDecode, 20);
  s.exit(45);
  s.exit(60);
  s.enter(Layer::Cg, 70);
  s.exit(90);
  s.exit(100);
  const Snapshot& t = s.totals;
  check(s.depth() == 0, "stack unwinds");
  check(t[Layer::CodecDecode].total_ns == 25 && t[Layer::CodecDecode].self_ns == 25,
        "leaf self time equals its duration");
  check(t[Layer::BackupStore].total_ns == 50 && t[Layer::BackupStore].self_ns == 25,
        "store self time excludes the nested decode");
  check(t[Layer::Cg].self_ns == 20, "sibling child");
  check(t[Layer::Run].total_ns == 100 && t[Layer::Run].self_ns == 30,
        "root self time excludes direct children only");
  std::int64_t self_sum = 0;
  for (const auto& layer : t.layers) self_sum += layer.self_ns;
  check(self_sum == t[Layer::Run].total_ns, "self times sum to the root span");
  check(t[Layer::Run].calls == 1 && t[Layer::BackupStore].calls == 1 &&
            t[Layer::CodecDecode].calls == 1 && t[Layer::Cg].calls == 1,
        "one call per span");
}

void repeated_layer_recursion() {
  // decode [0,10) > decode [2,5): both calls count, self times add to 10.
  SpanStack s;
  s.enter(Layer::CodecDecode, 0);
  s.enter(Layer::CodecDecode, 2);
  s.exit(5);
  s.exit(10);
  check(s.totals[Layer::CodecDecode].calls == 2, "recursive calls counted");
  check(s.totals[Layer::CodecDecode].self_ns == 10,
        "recursive self time is not double-counted");
}

void overflow_is_ignored() {
  SpanStack s;
  const std::size_t depth = SpanStack::kMaxDepth + 5;
  for (std::size_t i = 0; i < depth; ++i) {
    s.enter(Layer::DesSchedule, static_cast<std::int64_t>(i));
  }
  for (std::size_t i = 0; i < depth; ++i) {
    s.exit(static_cast<std::int64_t>(1000 + i));
  }
  check(s.depth() == 0, "overflowed stack unwinds");
  check(s.totals[Layer::DesSchedule].calls == SpanStack::kMaxDepth,
        "spans beyond the depth limit are dropped, not mismatched");
}

void wrapped_store_contains_decode() {
  perfbench::trace::reset();
  jacepp::core::BackupStore store;
  const jacepp::serial::Bytes state(4096, 7);
  const auto frame = jacepp::core::checkpoint::encode_full_frame(1, 256, state);
  const auto result = store.store_frame(1, 2, 10, frame);
  check(result.accepted, "store accepted the frame");
  const Snapshot s = perfbench::trace::collect();
  const auto& st = s[Layer::BackupStore];
  const auto& dec = s[Layer::CodecDecode];
  check(st.calls == 1, "store_frame went through its wrapper");
  check(dec.calls >= 1, "decode_frame nested inside store_frame was wrapped");
  check(dec.total_ns <= st.total_ns, "child span inside its parent");
  check(st.self_ns + dec.self_ns == st.total_ns,
        "store self time plus decode self time equals store duration");
  check(s.counters.decode_bytes >= frame.size(), "decode bytes counted");
}

void exited_threads_are_merged() {
  perfbench::trace::reset();
  std::thread worker([] {
    const perfbench::trace::Span span(Layer::DesPop);
  });
  worker.join();
  {
    const perfbench::trace::Span span(Layer::DesPop);
  }
  check(perfbench::trace::collect()[Layer::DesPop].calls == 2,
        "spans of an exited thread are kept");
}

void setup_is_kept_apart_from_the_run() {
  perfbench::trace::reset();
  {
    const perfbench::trace::Span span(Layer::AddNode);
  }
  perfbench::trace::begin_run();
  {
    const perfbench::trace::Span span(Layer::Run);
  }
  const Snapshot setup = perfbench::trace::setup_totals();
  const Snapshot run = perfbench::trace::collect();
  check(setup[Layer::AddNode].calls == 1 && setup[Layer::Run].calls == 0,
        "spans before begin_run go to the set-up");
  check(run[Layer::AddNode].calls == 0 && run[Layer::Run].calls == 1,
        "spans after begin_run go to the run");
}

}  // namespace

int main() {
  nested_on_fake_clock();
  repeated_layer_recursion();
  overflow_is_ignored();
  wrapped_store_contains_decode();
  exited_threads_are_merged();
  setup_is_kept_apart_from_the_run();
  std::printf("span_test: %d checks passed\n", g_checks);
  return 0;
}
