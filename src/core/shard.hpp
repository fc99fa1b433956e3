// Consistent shard assignment for the decentralized control plane
// (DESIGN.md §13): which super-peer is a daemon's home register, and which
// super-peer a spawner's reservation request starts at. Pure integer
// arithmetic — the choice must replay bit-for-bit across runs, platforms and
// thread counts, and must be stable across a daemon's crash/revive
// incarnations (it hashes the NodeId, which incarnations share).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/world.hpp"

namespace jacepp::core {

/// Home shard of `id` among `n` shards (0 when n <= 1), by the same
/// SplitMix64 mix the simulator uses for its own shard assignment.
[[nodiscard]] constexpr std::size_t shard_of(std::uint64_t id, std::size_t n) {
  return n <= 1 ? 0 : static_cast<std::size_t>(sim::mix64(id) % n);
}

}  // namespace jacepp::core
