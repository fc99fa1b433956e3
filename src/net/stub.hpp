// Node identity and the "RMI stub" analogue.
//
// In the paper, after bootstrap every entity is addressed by its Java RMI stub
// — a serializable remote reference that carries location data without login
// information. jacepp's Stub carries the same information content: a transport
// address (NodeId) plus an incarnation counter. A daemon that disconnects and
// later rejoins comes back with a higher incarnation; messages addressed to a
// stale incarnation are silently dropped, which is exactly the paper's
// message-loss-tolerant semantics for failed peers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "serial/serial.hpp"

namespace jacepp::net {

using NodeId = std::uint64_t;
using Incarnation = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0;

/// Role of an entity — carried in stubs for diagnostics and registration.
enum class EntityKind : std::uint8_t {
  Unknown = 0,
  Daemon = 1,
  SuperPeer = 2,
  Spawner = 3,
};

const char* to_string(EntityKind kind);

struct Stub {
  NodeId node = kInvalidNode;
  Incarnation incarnation = 0;
  EntityKind kind = EntityKind::Unknown;

  [[nodiscard]] bool valid() const { return node != kInvalidNode; }

  /// Address-only form (incarnation 0): matches any live incarnation at the
  /// node, like an IP address that survives the peer restarting. Used only
  /// for bootstrapping, per the paper.
  [[nodiscard]] Stub address() const { return Stub{node, 0, kind}; }

  friend bool operator==(const Stub& a, const Stub& b) {
    return a.node == b.node && a.incarnation == b.incarnation;
  }
  friend bool operator!=(const Stub& a, const Stub& b) { return !(a == b); }

  /// Ordering for use as a map key (kind is identity-irrelevant).
  friend bool operator<(const Stub& a, const Stub& b) {
    return a.node != b.node ? a.node < b.node : a.incarnation < b.incarnation;
  }

  JACEPP_WIRE_FIELDS(node, incarnation, kind)

  [[nodiscard]] std::string to_debug_string() const;
};

}  // namespace jacepp::net

/// The node id itself, with the incarnation in the top bits (node ids are
/// dense counters, far below 2^40). Like std::hash<std::uint64_t>, this
/// keeps dense ids in distinct, ordered buckets: a super-peer's last-heard
/// index receives each period's heartbeats in runs of ascending ids, and
/// those runs then walk its hash table in memory order (DESIGN.md §13).
template <>
struct std::hash<jacepp::net::Stub> {
  std::size_t operator()(const jacepp::net::Stub& s) const noexcept {
    return std::hash<std::uint64_t>()(
        s.node ^ (static_cast<std::uint64_t>(s.incarnation) << 40));
  }
};
