// Link-time interposition over the layers' public entry points.
//
// The traced build links with -Wl,--wrap=<symbol> for every symbol below
// (PERFBENCH_WRAPPED_SYMBOLS in CMakeLists.txt): each call from another
// translation unit lands in __wrap_<symbol>, which opens a span and forwards
// to __real_<symbol>, the original definition. A member function is declared
// as a free function taking `this` first, which is its Itanium-ABI calling
// convention. Calls inside the defining translation unit and inline functions
// are not redirected (README.md lists what this leaves unmeasured).
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/backup.hpp"
#include "core/checkpoint.hpp"
#include "linalg/cg.hpp"
#include "net/link.hpp"
#include "sim/event_queue.hpp"
#include "sim/world.hpp"
#include "trace.hpp"

using namespace jacepp;
namespace cp = jacepp::core::checkpoint;
using perfbench::trace::Layer;
using perfbench::trace::Span;
using perfbench::trace::counters;

extern "C" {

// --- core: checkpoint codec ------------------------------------------------
cp::DeltaEncoder::Emitted
__real__ZN6jacepp4core10checkpoint12DeltaEncoder4emitEmRKSt6vectorIhSaIhEERKSt8optionalINS1_11DirtyRangesEE(
    cp::DeltaEncoder* self, std::size_t holder, const serial::Bytes& state,
    const std::optional<cp::DirtyRanges>& hints);
cp::DeltaEncoder::Emitted
__wrap__ZN6jacepp4core10checkpoint12DeltaEncoder4emitEmRKSt6vectorIhSaIhEERKSt8optionalINS1_11DirtyRangesEE(
    cp::DeltaEncoder* self, std::size_t holder, const serial::Bytes& state,
    const std::optional<cp::DirtyRanges>& hints) {
  const Span span(Layer::CodecEmit);
  auto out =
      __real__ZN6jacepp4core10checkpoint12DeltaEncoder4emitEmRKSt6vectorIhSaIhEERKSt8optionalINS1_11DirtyRangesEE(
          self, holder, state, hints);
  counters().emit_bytes += out.frame.size();
  if (out.kind == cp::FrameKind::Full) ++counters().emit_full;
  return out;
}

std::optional<cp::DecodedFrame>
__real__ZN6jacepp4core10checkpoint12decode_frameERKSt6vectorIhSaIhEE(
    const serial::Bytes& frame);
std::optional<cp::DecodedFrame>
__wrap__ZN6jacepp4core10checkpoint12decode_frameERKSt6vectorIhSaIhEE(
    const serial::Bytes& frame) {
  const Span span(Layer::CodecDecode);
  counters().decode_bytes += frame.size();
  return __real__ZN6jacepp4core10checkpoint12decode_frameERKSt6vectorIhSaIhEE(
      frame);
}

// --- core: backup store ----------------------------------------------------
core::BackupStore::StoreResult
__real__ZN6jacepp4core11BackupStore11store_frameEjjmRKSt6vectorIhSaIhEE(
    core::BackupStore* self, core::AppId app, core::TaskId task,
    std::uint64_t iteration, const serial::Bytes& frame);
core::BackupStore::StoreResult
__wrap__ZN6jacepp4core11BackupStore11store_frameEjjmRKSt6vectorIhSaIhEE(
    core::BackupStore* self, core::AppId app, core::TaskId task,
    std::uint64_t iteration, const serial::Bytes& frame) {
  const Span span(Layer::BackupStore);
  const auto result =
      __real__ZN6jacepp4core11BackupStore11store_frameEjjmRKSt6vectorIhSaIhEE(
          self, app, task, iteration, frame);
  if (result.needs_full) ++counters().store_needs_full;
  return result;
}

std::optional<serial::Bytes> __real__ZN6jacepp4core11BackupStore11materializeEjj(
    core::BackupStore* self, core::AppId app, core::TaskId task);
std::optional<serial::Bytes> __wrap__ZN6jacepp4core11BackupStore11materializeEjj(
    core::BackupStore* self, core::AppId app, core::TaskId task) {
  const Span span(Layer::BackupMaterialize);
  auto state = __real__ZN6jacepp4core11BackupStore11materializeEjj(self, app, task);
  if (!state) ++counters().materialize_failed;
  return state;
}

// --- linalg ----------------------------------------------------------------
linalg::CgResult
__real__ZN6jacepp6linalg18conjugate_gradientERKNS0_9CsrMatrixERKSt6vectorIdNS_7support16AlignedAllocatorIdLm64EEEERS8_RKNS0_9CgOptionsE(
    const linalg::CsrMatrix& a, const linalg::Vector& b, linalg::Vector& x,
    const linalg::CgOptions& options);
linalg::CgResult
__wrap__ZN6jacepp6linalg18conjugate_gradientERKNS0_9CsrMatrixERKSt6vectorIdNS_7support16AlignedAllocatorIdLm64EEEERS8_RKNS0_9CgOptionsE(
    const linalg::CsrMatrix& a, const linalg::Vector& b, linalg::Vector& x,
    const linalg::CgOptions& options) {
  const Span span(Layer::Cg);
  const auto result =
      __real__ZN6jacepp6linalg18conjugate_gradientERKNS0_9CsrMatrixERKSt6vectorIdNS_7support16AlignedAllocatorIdLm64EEEERS8_RKNS0_9CgOptionsE(
          a, b, x, options);
  counters().cg_iterations += result.iterations;
  counters().cg_flops += result.flops;
  return result;
}

// --- sim: event queue and world ----------------------------------------------
std::function<void()> __real__ZN6jacepp3sim10EventQueue3popEPdPm(
    sim::EventQueue* self, double* now, std::uint64_t* tag);
std::function<void()> __wrap__ZN6jacepp3sim10EventQueue3popEPdPm(
    sim::EventQueue* self, double* now, std::uint64_t* tag) {
  const Span span(Layer::DesPop);
  return __real__ZN6jacepp3sim10EventQueue3popEPdPm(self, now, tag);
}

sim::EventId __real__ZN6jacepp3sim10EventQueue8scheduleEdSt8functionIFvvEE(
    sim::EventQueue* self, double when, std::function<void()> fn);
sim::EventId __wrap__ZN6jacepp3sim10EventQueue8scheduleEdSt8functionIFvvEE(
    sim::EventQueue* self, double when, std::function<void()> fn) {
  const Span span(Layer::DesSchedule);
  return __real__ZN6jacepp3sim10EventQueue8scheduleEdSt8functionIFvvEE(
      self, when, std::move(fn));
}

sim::EventId __real__ZN6jacepp3sim10EventQueue15schedule_taggedEdmSt8functionIFvvEE(
    sim::EventQueue* self, double when, std::uint64_t tag,
    std::function<void()> fn);
sim::EventId __wrap__ZN6jacepp3sim10EventQueue15schedule_taggedEdmSt8functionIFvvEE(
    sim::EventQueue* self, double when, std::uint64_t tag,
    std::function<void()> fn) {
  const Span span(Layer::DesSchedule);
  return __real__ZN6jacepp3sim10EventQueue15schedule_taggedEdmSt8functionIFvvEE(
      self, when, tag, std::move(fn));
}

net::Stub
__real__ZN6jacepp3sim8SimWorld8add_nodeESt10unique_ptrINS_3net5ActorESt14default_deleteIS4_EERKNS0_11MachineSpecENS3_10EntityKindE(
    sim::SimWorld* self, std::unique_ptr<net::Actor> actor,
    const sim::MachineSpec& spec, net::EntityKind kind);
net::Stub
__wrap__ZN6jacepp3sim8SimWorld8add_nodeESt10unique_ptrINS_3net5ActorESt14default_deleteIS4_EERKNS0_11MachineSpecENS3_10EntityKindE(
    sim::SimWorld* self, std::unique_ptr<net::Actor> actor,
    const sim::MachineSpec& spec, net::EntityKind kind) {
  const Span span(Layer::AddNode);
  return __real__ZN6jacepp3sim8SimWorld8add_nodeESt10unique_ptrINS_3net5ActorESt14default_deleteIS4_EERKNS0_11MachineSpecENS3_10EntityKindE(
      self, std::move(actor), spec, kind);
}

// --- net: link layer -------------------------------------------------------
void __real__ZN6jacepp3net4Link7enqueueENS0_7MessageERKNS0_4StubE(
    net::Link* self, net::Message message, const net::Stub& to);
void __wrap__ZN6jacepp3net4Link7enqueueENS0_7MessageERKNS0_4StubE(
    net::Link* self, net::Message message, const net::Stub& to) {
  const Span span(Layer::LinkEnqueue);
  __real__ZN6jacepp3net4Link7enqueueENS0_7MessageERKNS0_4StubE(
      self, std::move(message), to);
}

std::optional<net::WireFrame> __real__ZN6jacepp3net4Link15next_wire_frameEv(
    net::Link* self);
std::optional<net::WireFrame> __wrap__ZN6jacepp3net4Link15next_wire_frameEv(
    net::Link* self) {
  const Span span(Layer::LinkNextWireFrame);
  return __real__ZN6jacepp3net4Link15next_wire_frameEv(self);
}

bool __real__ZN6jacepp3net12unpack_batchERKNS0_7MessageERSt6vectorIS1_SaIS1_EE(
    const net::Message& envelope, std::vector<net::Message>& out);
bool __wrap__ZN6jacepp3net12unpack_batchERKNS0_7MessageERSt6vectorIS1_SaIS1_EE(
    const net::Message& envelope, std::vector<net::Message>& out) {
  const Span span(Layer::LinkUnpackBatch);
  return __real__ZN6jacepp3net12unpack_batchERKNS0_7MessageERSt6vectorIS1_SaIS1_EE(
      envelope, out);
}

}  // extern "C"
