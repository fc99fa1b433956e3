#include "sim/world.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "support/assert.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"

namespace jacepp::sim {

namespace {

/// The executing shard's round-stop flag. request_stop() may be called from
/// actor code while a round is in flight on several worker threads; the
/// requesting shard ends its own round at the next event boundary via this
/// thread-local, while every OTHER shard finishes its round normally —
/// checking the global stop flag mid-round would make the event count depend
/// on cross-thread timing.
thread_local bool* tls_round_stop = nullptr;

struct RoundStopGuard {
  explicit RoundStopGuard(bool* flag) { tls_round_stop = flag; }
  ~RoundStopGuard() { tls_round_stop = nullptr; }
};

/// Keeps the heap that worlds free inside the process (DESIGN.md §12
/// "Node table"). A world of 100k daemons frees some 150 MB when it is
/// destroyed; glibc would hand the heap top back to the OS, and the next
/// world would fault every page in again.
void keep_freed_heap() {
#if defined(__GLIBC__)
  static const int once = mallopt(M_TRIM_THRESHOLD, -1);
  (void)once;
#endif
}

void accumulate(NetStats& into, const NetStats& from) {
  into.sent += from.sent;
  into.delivered += from.delivered;
  into.lost_down += from.lost_down;
  into.lost_stale += from.lost_stale;
  into.bytes_sent += from.bytes_sent;
  into.frames_on_wire += from.frames_on_wire;
  into.cross_shard_frames += from.cross_shard_frames;
  for (const auto& [type, count] : from.sent_by_type) {
    into.sent_by_type[type] += count;
  }
  for (const auto& [type, count] : from.delivered_by_type) {
    into.delivered_by_type[type] += count;
  }
}

}  // namespace

/// Per-node Env implementation; all side effects route back into the world.
/// Every method runs on the node's shard (events for a node live in its
/// shard's queue), so it may touch the shard and the node freely but nothing
/// owned by another shard.
class SimWorld::NodeEnv : public net::Env {
 public:
  NodeEnv(SimWorld* world, net::NodeId id, Shard* shard)
      : world_(world), id_(id), shard_(shard) {}

  [[nodiscard]] double now() const override { return shard_->now; }

  [[nodiscard]] net::Stub self() const override {
    return world_->node_ref(id_).stub;
  }

  void send(const net::Stub& to, net::Message message) override {
    world_->send_from(id_, to, std::move(message));
  }

  net::TimerId schedule(double delay, std::function<void()> fn) override {
    Node& node = world_->node_ref(id_);
    return world_->schedule_guarded(id_, node.stub.incarnation,
                                    shard_->now + delay, std::move(fn));
  }

  void cancel(net::TimerId timer) override { shard_->queue.cancel(timer); }

  void compute(std::function<double()> work, std::function<void()> done) override {
    Node& node = world_->node_ref(id_);
    // The real numerics run now (so the actor's state is already advanced);
    // the *virtual* cost is charged to the machine, serializing with any
    // compute still in flight on this node. Message handling proceeds in the
    // meantime — the multi-threaded overlap of the paper.
    const double flops = work();
    JACEPP_ASSERT(flops >= 0.0);
    double duration = flops / node.spec.flops_per_sec;
    const double j = world_->config_.compute_jitter;
    if (j > 0.0) duration *= node.rng.uniform(1.0 - j, 1.0 + j);
    const double start = std::max(shard_->now, node.busy_until);
    node.busy_until = start + duration;
    world_->schedule_guarded(id_, node.stub.incarnation, node.busy_until,
                             std::move(done));
  }

  Rng& rng() override { return world_->node_ref(id_).rng; }

  void shutdown_self() override {
    Node& node = world_->node_ref(id_);
    if (!node.up) return;
    node.up = false;
    if (node.actor) node.actor->on_stop(*this);
  }

 private:
  SimWorld* world_;
  net::NodeId id_;
  Shard* shard_;
};

SimWorld::SimWorld(SimConfig config) : config_(config), rng_(config.seed) {
  keep_freed_heap();
  config_.shards = std::clamp<std::size_t>(config_.shards, 1, 4096);
  const std::size_t n = config_.shards;
  shards_.reserve(n);
  shard_wire_min_.assign(n, std::numeric_limits<double>::infinity());
  for (std::size_t s = 0; s < n; ++s) {
    auto shard = std::make_unique<Shard>();
    if (n == 1) {
      // Classic mode: shard 0 *is* the old scheduler — the world rng drives
      // message jitter (interleaving with harness draws exactly as before)
      // and counters land directly in stats_.
      shard->link_rng = &rng_;
      shard->stats = &stats_;
    } else {
      // Per-shard jitter stream: a pure function of (seed, shard index),
      // never of rng_'s mutable state — replay must not depend on how many
      // draws the harness or other shards made.
      shard->rng = Rng(mix64(config_.seed ^
                             (0x9E3779B97F4A7C15ull * (s + 1))));
      shard->link_rng = &shard->rng;
      shard->stats = &shard->local;
    }
    shards_.push_back(std::move(shard));
  }
}

SimWorld::~SimWorld() = default;

SimWorld::Node& SimWorld::node_ref(net::NodeId id) {
  Node* node = find_node(id);
  JACEPP_CHECK(node != nullptr, "unknown node id");
  return *node;
}

const SimWorld::Node& SimWorld::node_ref(net::NodeId id) const {
  const Node* node = find_node(id);
  JACEPP_CHECK(node != nullptr, "unknown node id");
  return *node;
}

bool SimWorld::alive_at(net::NodeId id, net::Incarnation inc) const {
  const Node* node = find_node(id);
  return node != nullptr && node->up && node->stub.incarnation == inc;
}

net::Stub SimWorld::add_node(std::unique_ptr<net::Actor> actor,
                             const MachineSpec& spec, net::EntityKind kind) {
  const net::NodeId id = next_node_++;
  JACEPP_CHECK(id >> 32 == 0, "add_node: node ids must fit 32 bits");
  Node node;
  node.actor = std::move(actor);
  node.spec = spec;
  node.stub = net::Stub{id, 1, kind};
  node.up = true;
  node.rng = rng_.split(id);
  node.shard = shard_of(id, shards_.size());
  node.env = std::make_unique<NodeEnv>(this, id, shards_[node.shard].get());
  // A new node can only LOWER a minimum, so min(cached, spec) is exact.
  shard_wire_min_[node.shard] =
      std::min(shard_wire_min_[node.shard], spec.min_wire_cost());
  nodes_.push_back(std::make_unique<Node>(std::move(node)));
  JACEPP_ASSERT(nodes_.size() == id);
  const Node& ref = *nodes_.back();
  schedule_guarded(id, ref.stub.incarnation, now_, [this, id] {
    Node& n = node_ref(id);
    n.actor->on_start(*n.env);
  });
  return ref.stub;
}

void SimWorld::disconnect(net::NodeId node_id) {
  Node* node = find_node(node_id);
  if (node == nullptr || !node->up) return;
  node->up = false;
  // Outbound link queues die with the sender: a crashed node emits nothing,
  // and a revived incarnation starts with empty queues.
  auto& links = shards_[node->shard]->links;
  for (auto link_it = links.begin(); link_it != links.end();) {
    link_it = link_it->first.from == node_id ? links.erase(link_it)
                                             : std::next(link_it);
  }
  JACEPP_LOG(Debug, "sim", "node %llu disconnected at %.3f",
             static_cast<unsigned long long>(node_id), now_);
}

net::Stub SimWorld::revive(net::NodeId node_id, std::unique_ptr<net::Actor> actor) {
  Node& node = node_ref(node_id);
  JACEPP_CHECK(!node.up, "revive: node is still up");
  node.actor = std::move(actor);
  node.stub.incarnation += 1;
  node.up = true;
  node.busy_until = now_;
  schedule_guarded(node_id, node.stub.incarnation, now_, [this, node_id] {
    Node& n = node_ref(node_id);
    n.actor->on_start(*n.env);
  });
  return node.stub;
}

bool SimWorld::is_up(net::NodeId node_id) const {
  const Node* node = find_node(node_id);
  return node != nullptr && node->up;
}

bool SimWorld::is_current(const net::Stub& stub) const {
  return alive_at(stub.node, stub.incarnation);
}

net::Actor* SimWorld::actor(net::NodeId node_id) {
  Node* node = find_node(node_id);
  return node != nullptr ? node->actor.get() : nullptr;
}

void SimWorld::throttle(net::NodeId node, double factor) {
  JACEPP_CHECK(factor >= 1.0, "throttle: factor must be >= 1 (slowdown only)");
  Node& n = node_ref(node);
  n.spec.flops_per_sec /= factor;
  n.spec.bandwidth_bps /= factor;
}

// An event's tag is 0, or the (node, incarnation) guard of
// schedule_guarded: the node id in the high 32 bits (ids start at 1, so the
// tag is never 0) and the incarnation in the low 32.
EventId SimWorld::schedule_guarded(net::NodeId id, net::Incarnation inc,
                                   double when, std::function<void()> fn) {
  return shard_for(id).queue.schedule_tagged(when, id << 32 | inc,
                                             std::move(fn));
}

void SimWorld::run_next(Shard& sh) {
  std::uint64_t tag = 0;
  auto fn = sh.queue.pop(&sh.now, &tag);
  ++sh.executed;
  if (tag == 0 ||
      alive_at(tag >> 32, static_cast<net::Incarnation>(tag & 0xffffffffu))) {
    fn();
  }
}

EventId SimWorld::schedule_global(double delay, std::function<void()> fn) {
  // Classic mode keeps harness events in shard 0's queue so event-id
  // tie-breaking is bit-identical to the single-queue scheduler they shared.
  EventQueue& q = shards_.size() > 1 ? global_queue_ : shards_[0]->queue;
  return q.schedule(now_ + delay, std::move(fn));
}

void SimWorld::request_stop() {
  stopped_.store(true, std::memory_order_relaxed);
  if (tls_round_stop != nullptr) *tls_round_stop = true;
}

void SimWorld::clear_stop() {
  stopped_.store(false, std::memory_order_relaxed);
  for (auto& shard : shards_) shard->stop_round = false;
}

NetStats& SimWorld::stats() {
  aggregate_stats();
  return stats_;
}

const NetStats& SimWorld::stats() const {
  aggregate_stats();
  return stats_;
}

void SimWorld::aggregate_stats() const {
  if (shards_.size() <= 1) return;  // stats_ is the live accumulator
  NetStats total;
  for (const auto& shard : shards_) accumulate(total, shard->local);
  stats_ = std::move(total);
}

std::uint64_t SimWorld::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->executed;
  return total;
}

double SimWorld::transfer_delay(const Node& from, const MachineSpec& to_spec,
                                std::size_t bytes, Rng& rng) {
  const double latency = from.spec.latency_s + to_spec.latency_s +
                         from.spec.message_overhead_s + to_spec.message_overhead_s;
  const double bandwidth = std::min(from.spec.bandwidth_bps, to_spec.bandwidth_bps);
  double delay = latency + static_cast<double>(bytes) * 8.0 / bandwidth;
  const double j = config_.message_jitter;
  if (j > 0.0) delay *= rng.uniform(1.0 - j, 1.0 + j);
  return delay;
}

void SimWorld::send_from(net::NodeId from_id, const net::Stub& to,
                         net::Message message) {
  Node& from = node_ref(from_id);
  if (!from.up) return;  // a crashed sender emits nothing
  message.from = from.stub;
  Shard& sh = *shards_[from.shard];

  ++sh.stats->sent;
  ++sh.stats->sent_by_type[message.type];

  if (!link_layer_active()) {
    transmit_wire(from_id, to, std::move(message), nullptr);
    return;
  }
  auto [it, inserted] =
      sh.links.try_emplace(LinkKey{from_id, to.node}, &config_.link, &comm_stats_);
  it->second.link.enqueue(std::move(message), to);
  pump_link(from_id, to.node);
}

void SimWorld::pump_link(net::NodeId from_id, net::NodeId to_node) {
  Shard& sh = shard_for(from_id);
  auto it = sh.links.find(LinkKey{from_id, to_node});
  if (it == sh.links.end()) return;
  LinkState& ls = it->second;
  // A crashed sender's queues die with it (disconnect() erases them; this
  // also guards flush/occupancy events that were already in flight).
  if (!is_up(from_id)) return;

  while (!(config_.serialize_links && ls.busy)) {
    if (ls.link.empty()) break;
    if (sh.now < ls.next_flush) {
      // Nagle-style accumulation: the first send after an idle period left
      // immediately and opened a window; everything arriving inside it
      // queues (and Data coalesces) until the flush event fires.
      if (!ls.flush_armed) {
        ls.flush_armed = true;
        const LinkKey key{from_id, to_node};
        // The link may be gone by then: disconnect() erases a crashed
        // sender's queues.
        sh.queue.schedule(ls.next_flush, [this, key] {
          Shard& s2 = shard_for(key.from);
          auto it2 = s2.links.find(key);
          if (it2 == s2.links.end()) return;
          it2->second.flush_armed = false;
          pump_link(key.from, key.to);
        });
      }
      break;
    }
    auto frame = ls.link.next_wire_frame();
    if (!frame) break;
    transmit_wire(from_id, frame->to, std::move(frame->message), &ls);
    if (ls.link.empty() && config_.link.flush_window > 0.0) {
      ls.next_flush = sh.now + config_.link.flush_window;
    }
  }
}

void SimWorld::occupy_link(net::NodeId from_id, net::NodeId to_node,
                           const MachineSpec& to_spec, std::size_t bytes,
                           LinkState* ls) {
  if (ls == nullptr || !config_.serialize_links) return;
  // Sender-side wire occupancy: software overhead plus serialization onto
  // the slower NIC. Deterministic (no jitter), so frame ordering on a link
  // is stable across runs regardless of the jitter draws on delivery.
  const Node& from = node_ref(from_id);
  Shard& sh = *shards_[from.shard];
  const double bandwidth = std::min(from.spec.bandwidth_bps, to_spec.bandwidth_bps);
  const double occupancy = from.spec.message_overhead_s +
                           static_cast<double>(bytes) * 8.0 / bandwidth;
  ls->busy = true;
  const LinkKey key{from_id, to_node};
  sh.queue.schedule(sh.now + occupancy, [this, key] {
    Shard& s2 = shard_for(key.from);
    auto it = s2.links.find(key);
    if (it == s2.links.end()) return;
    it->second.busy = false;
    pump_link(key.from, key.to);
  });
}

void SimWorld::transmit_wire(net::NodeId from_id, const net::Stub& to,
                             net::Message message, LinkState* ls) {
  Node& from = node_ref(from_id);
  Shard& sh = *shards_[from.shard];
  sh.stats->bytes_sent += message.wire_size();
  ++sh.stats->frames_on_wire;

  Node* dest_node = find_node(to.node);
  if (dest_node == nullptr) {
    ++sh.stats->lost_down;
    return;
  }
  Node& dest = *dest_node;

  if (dest.shard != from.shard) {
    // Cross-shard: the sender may only read the destination's immutable
    // fields (spec, shard). Liveness and incarnation resolve at *arrival*
    // on the destination shard — deliver_cross — which also means sender-side
    // wire occupancy is charged whether or not the destination turns out to
    // be up (a NIC does not know its peer died).
    occupy_link(from_id, to.node, dest.spec, message.wire_size(), ls);
    const double delay =
        transfer_delay(from, dest.spec, message.wire_size(), *sh.link_rng);
    ++sh.stats->cross_shard_frames;
    // seq = position in this outbox: the per-shard (arrival, seq) sort at the
    // end of the round then reproduces send order for equal arrivals.
    sh.outbox.push_back(CrossFrame{fifo_arrival(ls, sh.now + delay), to,
                                   std::move(message), dest.shard,
                                   sh.outbox.size()});
    return;
  }

  // Same-shard (and the whole world when shards == 1): the classic path,
  // checks at send time, bit-identical draw and event-id order.
  if (!dest.up) {
    ++sh.stats->lost_down;
    return;
  }
  // Incarnation 0 is an "address stub" (the bootstrap IP-address analogue):
  // it matches whatever incarnation currently lives at the node.
  if (to.incarnation != 0 && dest.stub.incarnation != to.incarnation) {
    ++sh.stats->lost_stale;
    return;
  }

  occupy_link(from_id, to.node, dest.spec, message.wire_size(), ls);

  const double delay =
      transfer_delay(from, dest.spec, message.wire_size(), *sh.link_rng);
  // Deliver only if the destination is still the same live incarnation when
  // the bits arrive; otherwise the message is lost in flight.
  park(from.shard, fifo_arrival(ls, sh.now + delay),
       net::Stub{to.node, dest.stub.incarnation, to.kind}, std::move(message),
       /*cross=*/false);
}

double SimWorld::fifo_arrival(LinkState* ls, double arrival) {
  if (ls == nullptr) return arrival;
  ls->last_arrival = std::max(ls->last_arrival, arrival);
  return ls->last_arrival;
}

void SimWorld::deliver_wire(net::NodeId dest_id, net::Incarnation dest_inc,
                            net::Message msg) {
  Node& dest = node_ref(dest_id);  // only ever scheduled for a known node
  Shard& sh = *shards_[dest.shard];
  if (!dest.up || dest.stub.incarnation != dest_inc) {
    ++sh.stats->lost_down;  // lost in flight, same as the classic alive_at drop
    return;
  }
  deliver_body(dest, sh, std::move(msg));
}

void SimWorld::deliver_body(Node& dest, Shard& sh, net::Message msg) {
  ++sh.stats->delivered;
  ++sh.stats->delivered_by_type[msg.type];
  dest.actor->on_message(msg, *dest.env);
}

void SimWorld::deliver_cross(Node& dest, const net::Stub& to, net::Message msg) {
  // Runs on the destination shard: resolve the checks the sender deferred.
  Shard& sh = *shards_[dest.shard];
  if (!dest.up) {
    ++sh.stats->lost_down;
    return;
  }
  if (to.incarnation != 0 && dest.stub.incarnation != to.incarnation) {
    ++sh.stats->lost_stale;
    return;
  }
  deliver_body(dest, sh, std::move(msg));
}

// --- schedulers --------------------------------------------------------------

void SimWorld::run() {
  if (shards_.size() > 1) {
    run_rounds(config_.max_time);
    return;
  }
  Shard& sh = *shards_[0];
  while (!stopped_.load(std::memory_order_relaxed) && !sh.queue.empty()) {
    if (sh.queue.next_time() > config_.max_time) break;
    now_ = sh.queue.next_time();
    run_next(sh);
  }
}

bool SimWorld::run_until(double t) {
  if (shards_.size() > 1) {
    run_rounds(t);
    if (!stopped_.load(std::memory_order_relaxed) && now_ < t) now_ = t;
    return stopped_.load(std::memory_order_relaxed);
  }
  Shard& sh = *shards_[0];
  while (!stopped_.load(std::memory_order_relaxed) && !sh.queue.empty() &&
         sh.queue.next_time() <= t) {
    now_ = sh.queue.next_time();
    run_next(sh);
  }
  if (!stopped_.load(std::memory_order_relaxed) && now_ < t) {
    now_ = t;
    sh.now = t;
  }
  return stopped_.load(std::memory_order_relaxed);
}

RoundWorkerPool& SimWorld::round_crew() {
  if (!crew_) {
    std::size_t lanes = config_.worker_threads;
    const bool force = lanes > 0;
    if (lanes == 0) {
      const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
      lanes = std::min(shards_.size(), hw);
    }
    crew_ = std::make_unique<RoundWorkerPool>(lanes, force);
  }
  return *crew_;
}

void SimWorld::run_rounds(double until) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Events at exactly `until` still run (the classic loop's `next > max_time`
  // break has the same inclusive boundary).
  const double cap = std::nextafter(until, kInf);
  while (!stopped_.load(std::memory_order_relaxed)) {
    const double t_global = global_queue_.empty() ? kInf : global_queue_.next_time();
    double t_shard = kInf;
    for (const auto& shard : shards_) {
      if (!shard->queue.empty()) {
        t_shard = std::min(t_shard, shard->queue.next_time());
      }
    }
    const double t_min = std::min(t_global, t_shard);
    if (t_min == kInf || t_min > until) break;

    if (t_global <= t_shard) {
      // Harness events run single-threaded at the barrier, *before* any
      // shard event with an equal timestamp — they may mutate global state
      // (disconnect/revive/add_node) that the next round then observes.
      now_ = t_global;
      auto fn = global_queue_.pop(&now_);
      fn();
      continue;
    }

    set_round_horizons(t_min, std::min(t_global, cap));
    run_round();
    merge_outboxes();
    ++rounds_;
  }
  for (const auto& shard : shards_) now_ = std::max(now_, shard->now);
}

void SimWorld::set_round_horizons(double t_min, double limit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Per-shard conservative horizons. A frame into shard d was sent by some
  // shard s != d at a time u >= t_min, and costs at least (1 - j) * (m_s +
  // m_d) where m_x is shard x's own wire-cost minimum — the sender's and the
  // receiver's endpoint each contribute their latency + per-message overhead
  // to transfer_delay. So no frame can land in d before
  //   t_min + (1 - j) * (m_d + min over s != d of m_s),
  // and shard d may run events strictly below that, even while a slow link
  // pinned inside some OTHER pair of shards would throttle a uniform
  // 2 * global-min horizon. The 0.999 shave absorbs floating-point rounding
  // in transfer_delay's sum/multiply, so a frame can never arrive strictly
  // inside the horizon that was open when it was sent. min-over-others needs
  // only the global min and second-min of the per-shard minima (the min
  // itself for every shard except the argmin).
  const double f = 0.999 * (1.0 - std::min(config_.message_jitter, 1.0));
  double m1 = kInf, m2 = kInf;
  std::size_t arg1 = 0;
  for (std::size_t s = 0; s < shard_wire_min_.size(); ++s) {
    const double m = shard_wire_min_[s];
    if (m < m1) {
      m2 = m1;
      m1 = m;
      arg1 = s;
    } else if (m < m2) {
      m2 = m;
    }
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    double horizon;
    if (f > 0.0) {
      // m_d = +inf means shard s owns no node, hence no events: the horizon
      // value is irrelevant, and t_min + inf folds to `limit` harmlessly.
      const double width = f * (shard_wire_min_[s] + (s == arg1 ? m2 : m1));
      horizon = width > 0.0 ? t_min + width : std::nextafter(t_min, kInf);
    } else {
      // f <= 0 (jitter >= 1): no positive flight-time bound exists; fall
      // back to lock-step rounds. Guarded up front so f * inf never forms
      // the 0 * inf NaN.
      horizon = std::nextafter(t_min, kInf);
    }
    shards_[s]->round_horizon = std::min(horizon, limit);
  }
}

void SimWorld::run_round() {
  // Static shard -> lane mapping (s % lanes): shards touch disjoint state,
  // so which lane runs a shard never matters — only the per-shard event
  // order does. The persistent crew replaces a per-round parallel_for; at
  // round counts in the tens of thousands per simulated second the dispatch
  // cost at the barrier is the round engine's fixed overhead.
  round_crew().run([this](std::size_t lane) {
    const std::size_t lanes = crew_->lanes();
    for (std::size_t s = lane; s < shards_.size(); s += lanes) {
      Shard& sh = *shards_[s];
      RoundStopGuard guard(&sh.stop_round);
      while (!sh.stop_round && !sh.queue.empty() &&
             sh.queue.next_time() < sh.round_horizon) {
        run_next(sh);
      }
      // Sort this shard's outbox by (arrival, seq) here, inside the parallel
      // region: the barrier's k-way merge then only walks sorted runs.
      // std::sort, not stable_sort — the latter allocates a merge buffer, and
      // (arrival, seq) is already a total order (seq is unique per outbox).
      std::sort(sh.outbox.begin(), sh.outbox.end(),
                [](const CrossFrame& a, const CrossFrame& b) {
                  if (a.arrival != b.arrival) return a.arrival < b.arrival;
                  return a.seq < b.seq;
                });
    }
  });
}

void SimWorld::merge_outboxes() {
  // Deterministic (arrival, shard, seq) merge, equivalent to the former
  // concatenate + stable_sort but allocation-free in steady state: each
  // outbox is already (arrival, seq)-sorted, so a cursor heap keyed
  // (arrival, shard) emits the frames in exactly the order the stable sort
  // produced — equal arrivals break by shard index (concatenation order),
  // then by seq (send order within a shard). Destination event-ids depend
  // only on this order, never on worker-thread interleaving.
  const auto later = [](const MergeCursor& a, const MergeCursor& b) {
    if (a.arrival != b.arrival) return a.arrival > b.arrival;
    return a.shard > b.shard;
  };
  merge_heap_.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]->outbox.empty()) {
      merge_heap_.push_back(MergeCursor{shards_[s]->outbox.front().arrival,
                                        static_cast<std::uint32_t>(s), 0});
    }
  }
  std::make_heap(merge_heap_.begin(), merge_heap_.end(), later);
  while (!merge_heap_.empty()) {
    std::pop_heap(merge_heap_.begin(), merge_heap_.end(), later);
    const MergeCursor cur = merge_heap_.back();
    merge_heap_.pop_back();
    std::vector<CrossFrame>& outbox = shards_[cur.shard]->outbox;

    // The barrier runs single-threaded, so it may write the destination
    // shard's parked slots.
    CrossFrame& frame = outbox[cur.index];
    park(frame.dest_shard, frame.arrival, frame.to, std::move(frame.message),
         /*cross=*/true);

    if (cur.index + 1 < outbox.size()) {
      merge_heap_.push_back(MergeCursor{outbox[cur.index + 1].arrival,
                                        cur.shard, cur.index + 1});
      std::push_heap(merge_heap_.begin(), merge_heap_.end(), later);
    }
  }
  for (auto& shard : shards_) shard->outbox.clear();
}

void SimWorld::park(std::uint32_t shard, double arrival, const net::Stub& to,
                    net::Message message, bool cross) {
  Shard& sh = *shards_[shard];
  std::uint32_t slot;
  if (!sh.parked_free.empty()) {
    slot = sh.parked_free.back();
    sh.parked_free.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(sh.parked.size());
    sh.parked.emplace_back();
  }
  Parked& parked = sh.parked[slot];
  parked.to = to;
  parked.message = std::move(message);
  parked.cross = cross;
  sh.queue.schedule(arrival,
                    [this, shard, slot] { deliver_parked(shard, slot); });
}

void SimWorld::deliver_parked(std::uint32_t shard, std::uint32_t slot) {
  Shard& sh = *shards_[shard];
  Parked& parked = sh.parked[slot];
  const net::Stub to = parked.to;
  const bool cross = parked.cross;
  net::Message message = std::move(parked.message);
  // Free the slot first: the handler may park new frames in this shard.
  sh.parked_free.push_back(slot);
  if (cross) {
    deliver_cross(node_ref(to.node), to, std::move(message));
  } else {
    deliver_wire(to.node, to.incarnation, std::move(message));
  }
}

std::vector<std::uint64_t> SimWorld::shard_event_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) counts.push_back(shard->executed);
  return counts;
}

}  // namespace jacepp::sim
