#include "core/super_peer.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace jacepp::core {

SuperPeer::SuperPeer(TimingConfig timing, ControlPlaneConfig /*cp*/,
                     ReputationConfig rep)
    : timing_(timing), rep_(rep) {}

const rmi::Table<SuperPeer>& SuperPeer::table() {
  static const rmi::Table<SuperPeer> table = [] {
    rmi::Table<SuperPeer> t;
    t.on<msg::RegisterDaemon, &SuperPeer::handle_register>();
    t.on<msg::Heartbeat, &SuperPeer::handle_heartbeat>();
    t.on<msg::LinkSuperPeers, &SuperPeer::handle_link>();
    t.on<msg::ReserveRequest, &SuperPeer::handle_reserve>();
    t.on<msg::AppRegisterReplica, &SuperPeer::handle_replica>();
    t.on<msg::FetchAppRegister, &SuperPeer::handle_fetch>();
    t.on<msg::ReputationReport, &SuperPeer::handle_reputation>();
    return t;
  }();
  return table;
}

void SuperPeer::on_start(net::Env& env) {
  env_ = &env;
  // Periodic register sweep: drop daemons that stopped heartbeating (§5.3).
  // Self-rearming timer (value-copyable, so it can reschedule itself).
  struct Rearm {
    SuperPeer* self;
    net::Env* env;
    void operator()() const {
      self->sweep(*env);
      env->schedule(self->timing_.sweep_period, Rearm{self, env});
    }
  };
  env.schedule(timing_.sweep_period, Rearm{this, &env});
}

void SuperPeer::on_message(const net::Message& message, net::Env& env) {
  table().dispatch(*this, message, env);
}

bool SuperPeer::has_registered(const net::Stub& daemon) const {
  return register_.count(daemon) != 0;
}

std::uint64_t SuperPeer::replica_version(AppId app_id) const {
  const auto it = replicas_.find(app_id);
  return it == replicas_.end() ? 0 : it->second.version;
}

void SuperPeer::handle_register(const msg::RegisterDaemon& m,
                                const net::Message&, net::Env& env) {
  register_.insert(m.daemon);
  last_heard_.touch(m.daemon, env.now());
  rmi::invoke(env, m.daemon, msg::RegisterAck{env.self()});
  JACEPP_LOG(Debug, "super-peer", "%s registered %s",
             env.self().to_debug_string().c_str(),
             m.daemon.to_debug_string().c_str());
}

void SuperPeer::handle_heartbeat(const msg::Heartbeat&, const net::Message& raw,
                                 net::Env& env) {
  // Only refresh daemons that are actually in the register (the index holds
  // the same keys); a reserved or unknown daemon gets no ack, steering it to
  // re-register if it believes it is still indexed here.
  if (!last_heard_.refresh(raw.from, env.now())) return;
  if (rep_.enabled) rep_store_.observe_success(raw.from.node);
  rmi::invoke(env, raw.from, msg::HeartbeatAck{});
}

void SuperPeer::handle_link(const msg::LinkSuperPeers& m, const net::Message&,
                            net::Env& env) {
  peers_.clear();
  for (const net::Stub& peer : m.peers) {
    if (peer.node != env.self().node) peers_.push_back(peer);
  }
}

std::vector<net::Stub> SuperPeer::grant_order() const {
  std::vector<net::Stub> order(register_.begin(), register_.end());
  if (rep_.enabled) {
    // Reputation-aware placement (DESIGN.md §14): best-scored daemons go
    // out first. Stable sort over the Register's stub order makes ties —
    // notably the all-neutral cold start — identical to the FIFO behaviour.
    std::stable_sort(order.begin(), order.end(),
                     [this](const net::Stub& a, const net::Stub& b) {
                       return rep_store_.score_of(a.node) >
                              rep_store_.score_of(b.node);
                     });
  }
  return order;
}

void SuperPeer::handle_reserve(const msg::ReserveRequest& m,
                               const net::Message&, net::Env& env) {
  // Fill as much as possible from the local register — FIFO by stub order
  // (O(count), the 100k-register hot path), or by descending reputation
  // score when rep.enabled (O(n log n), bounded by the register size).
  std::vector<net::Stub> granted;
  if (!rep_.enabled) {
    while (granted.size() < m.count && !register_.empty()) {
      const auto it = register_.begin();
      granted.push_back(*it);
      last_heard_.erase(*it);
      register_.erase(it);
    }
  } else {
    for (const net::Stub& daemon : grant_order()) {
      if (granted.size() >= m.count) break;
      granted.push_back(daemon);
      last_heard_.erase(daemon);
      register_.erase(daemon);
    }
  }
  for (const net::Stub& daemon : granted) {
    rmi::invoke(env, daemon, msg::Reserved{});
  }
  reservations_served_ += granted.size();

  const std::uint32_t shortfall =
      m.count - static_cast<std::uint32_t>(granted.size());
  bool exhausted = false;
  if (shortfall > 0) {
    // Forward the remainder to a linked super-peer not yet visited
    // (paper Figure 2: SP1 reserves the third daemon on SP2).
    auto visited = m.visited;
    visited.push_back(env.self());
    const net::Stub* next = nullptr;
    for (const net::Stub& peer : peers_) {
      const bool seen = std::any_of(
          visited.begin(), visited.end(),
          [&](const net::Stub& v) { return v.node == peer.node; });
      if (!seen) {
        next = &peer;
        break;
      }
    }
    if (next != nullptr) {
      msg::ReserveRequest forward;
      forward.request_id = m.request_id;
      forward.count = shortfall;
      forward.requester = m.requester;
      forward.visited = std::move(visited);
      rmi::invoke(env, *next, forward);
      ++requests_forwarded_;
    } else {
      // Whole overlay visited; the requester must retry later.
      exhausted = true;
    }
  }

  if (!granted.empty() || exhausted) {
    msg::ReserveReply reply;
    reply.request_id = m.request_id;
    reply.daemons = std::move(granted);
    reply.exhausted = exhausted;
    rmi::invoke(env, m.requester, reply);
  }
}

void SuperPeer::handle_replica(const msg::AppRegisterReplica& m,
                               const net::Message&, net::Env&) {
  auto [it, inserted] = replicas_.try_emplace(m.reg.app_id, m.reg);
  if (!inserted && m.reg.version > it->second.version) it->second = m.reg;
}

void SuperPeer::handle_fetch(const msg::FetchAppRegister& m,
                             const net::Message& raw, net::Env& env) {
  msg::AppRegisterSnapshot reply;
  const auto it = replicas_.find(m.app_id);
  if (it != replicas_.end()) {
    reply.available = true;
    reply.reg = it->second;
  }
  rmi::invoke(env, raw.from, reply);
}

void SuperPeer::handle_reputation(const msg::ReputationReport& m,
                                  const net::Message&, net::Env&) {
  // Spawner-side evidence (DESIGN.md §14). Never sent unless the spawner runs
  // with rep.enabled; ignore it anyway if this super-peer does not keep
  // scores.
  if (!rep_.enabled) return;
  switch (m.kind) {
    case msg::ReputationReport::Success:
      rep_store_.observe_success(m.node);
      break;
    case msg::ReputationReport::Failure:
      rep_store_.observe_failure(m.node);
      break;
    case msg::ReputationReport::Liar:
      rep_store_.observe_liar(m.node);
      break;
    case msg::ReputationReport::Speed:
      rep_store_.observe_speed(m.node, m.value);
      break;
    default:
      break;
  }
}

void SuperPeer::sweep(net::Env& env) {
  // The cutoff mirrors the original linear scan's `last < now - timeout`
  // test bit-for-bit.
  const double cutoff = env.now() - timing_.daemon_timeout;
  daemons_swept_ += last_heard_.expire(cutoff, [&](const net::Stub& daemon) {
    JACEPP_LOG(Debug, "super-peer", "sweeping dead daemon %s",
               daemon.to_debug_string().c_str());
    register_.erase(daemon);
    // A swept daemon went silent while idle — an availability failure.
    if (rep_.enabled) rep_store_.observe_failure(daemon.node);
  });
}

}  // namespace jacepp::core
