// Super-Peer entity (paper §4.2, §5.1–5.3): entry point of the JaceP2P
// network. Indexes available daemons in its Register, answers reservation
// requests (filling locally, forwarding the shortfall across the super-peer
// overlay), and sweeps out daemons whose heartbeats stop.
//
// Decentralized control plane (DESIGN.md §13): heartbeats refresh a
// last-heard index in O(1) and the sweep pops only expired daemons, and the
// super-peer stores Application Register replicas pushed by the spawner so a
// standby spawner can adopt a running application.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/app.hpp"
#include "core/config.hpp"
#include "core/last_heard.hpp"
#include "core/messages.hpp"
#include "core/reputation.hpp"
#include "net/env.hpp"
#include "rmi/rmi.hpp"

namespace jacepp::core {

class SuperPeer : public net::Actor {
 public:
  /// `cp` is unused: no control-plane switch changes what a super-peer does.
  /// perfbench's cp-100k world still passes one, so the parameter stays
  /// until that workload's code changes (ROADMAP item 2).
  explicit SuperPeer(TimingConfig timing = {}, ControlPlaneConfig cp = {},
                     ReputationConfig rep = {});

  void on_start(net::Env& env) override;
  void on_message(const net::Message& message, net::Env& env) override;

  /// The message handlers every SuperPeer dispatches through (built once).
  static const rmi::Table<SuperPeer>& table();

  /// Configure the super-peer overlay before the entity starts (harness-side
  /// alternative to the LinkSuperPeers message; self is filtered out later).
  void set_linked_peers(std::vector<net::Stub> peers) { peers_ = std::move(peers); }

  // --- Introspection (harness/tests; single-threaded access in sim,
  //     post-shutdown access in rt) ---
  [[nodiscard]] std::size_t registered_count() const { return register_.size(); }
  [[nodiscard]] bool has_registered(const net::Stub& daemon) const;
  [[nodiscard]] std::uint64_t reservations_served() const { return reservations_served_; }
  [[nodiscard]] std::uint64_t requests_forwarded() const { return requests_forwarded_; }
  [[nodiscard]] std::uint64_t daemons_swept() const { return daemons_swept_; }
  [[nodiscard]] bool has_replica(AppId app_id) const { return replicas_.count(app_id) != 0; }
  [[nodiscard]] std::uint64_t replica_version(AppId app_id) const;
  [[nodiscard]] const ReputationStore& reputation() const { return rep_store_; }

 private:
  // Message handlers (table()); each takes the decoded payload, the raw
  // envelope and the Env it arrived on.
  void handle_register(const msg::RegisterDaemon& m, const net::Message& raw,
                       net::Env& env);
  void handle_heartbeat(const msg::Heartbeat& m, const net::Message& raw,
                        net::Env& env);
  void handle_link(const msg::LinkSuperPeers& m, const net::Message& raw,
                   net::Env& env);
  void handle_reserve(const msg::ReserveRequest& m, const net::Message& raw,
                      net::Env& env);
  void handle_replica(const msg::AppRegisterReplica& m, const net::Message& raw,
                      net::Env& env);
  void handle_fetch(const msg::FetchAppRegister& m, const net::Message& raw,
                    net::Env& env);
  void handle_reputation(const msg::ReputationReport& m,
                         const net::Message& raw, net::Env& env);
  void sweep(net::Env& env);
  /// Register keys in reservation-grant order: FIFO (stub order) by default,
  /// descending reputation score with stub-order tie-break when rep.enabled.
  [[nodiscard]] std::vector<net::Stub> grant_order() const;

  TimingConfig timing_;
  ReputationConfig rep_;
  net::Env* env_ = nullptr;

  /// The Register (paper Figure 1): the available daemons, in stub order,
  /// which is the FIFO grant order. When each was last heard from lives in
  /// `last_heard_`, whose keys are always exactly the Register's: register,
  /// grant and sweep update both.
  std::set<net::Stub> register_;
  LastHeardIndex<net::Stub> last_heard_;
  std::vector<net::Stub> peers_;  ///< linked super-peers (overlay)

  /// Application Register replicas (spawner failover; DESIGN.md §13).
  std::map<AppId, AppRegister> replicas_;

  /// EWMA availability/speed per daemon node (DESIGN.md §14). Keyed by node,
  /// so a machine's history survives crash/revive incarnations. Only written
  /// when rep_.enabled.
  ReputationStore rep_store_;

  std::uint64_t reservations_served_ = 0;
  std::uint64_t requests_forwarded_ = 0;
  std::uint64_t daemons_swept_ = 0;
};

}  // namespace jacepp::core
