// Reputation store (DESIGN.md §14): EWMA availability/speed scores per daemon
// node, in the spirit of Dubey–Tokekar's efficient-peer identification.
//
// Scores are keyed by NodeId, not Stub: a machine that crashes and revives
// keeps its history (its availability score took the failure hit), which is
// exactly what makes reputation-aware placement avoid flappy hosts.
//
// Two EWMA tracks per peer:
//   * availability — success observations (heartbeats, completions) pull it
//     toward 1, failures (sweeps, heartbeat timeouts, NACKs) toward 0;
//   * speed — normalized latency observations in [0, 1] (1 = instantaneous).
// The placement score blends them; a peer caught lying in a verification
// round is pinned to the floor and never recovers (crash-stop is forgivable,
// forged results are not).
//
// Every update is a pure function of the observation sequence, so two runs
// that deliver the same protocol events produce bit-identical scores — the
// store adds no randomness and is safe inside the golden-pinned paths.
#pragma once

#include <cstdint>
#include <map>

#include "net/stub.hpp"

namespace jacepp::core {

class ReputationStore {
 public:
  static constexpr double kEwmaAlpha = 0.25;    ///< smoothing for both tracks
  static constexpr double kInitialScore = 0.5;  ///< prior for unseen peers
  static constexpr double kSpeedWeight = 0.25;  ///< speed's share of the score

  void observe_success(net::NodeId node) {
    PeerScore& s = entry(node);
    if (s.liar) return;
    s.availability += kEwmaAlpha * (1.0 - s.availability);
  }

  void observe_failure(net::NodeId node) {
    PeerScore& s = entry(node);
    if (s.liar) return;
    s.availability -= kEwmaAlpha * s.availability;
  }

  /// `normalized` in [0, 1]: 1 = instantaneous, 0 = unusable.
  void observe_speed(net::NodeId node, double normalized) {
    PeerScore& s = entry(node);
    if (s.liar) return;
    s.speed += kEwmaAlpha * (normalized - s.speed);
  }

  /// Outvoted in a verification round: pin to the floor permanently.
  void observe_liar(net::NodeId node) {
    PeerScore& s = entry(node);
    if (!s.liar) ++liars_marked_;
    s.liar = true;
    s.availability = 0.0;
    s.speed = 0.0;
  }

  /// Blended placement score; unseen peers get the neutral prior (so fresh
  /// joiners rank between proven-good and proven-bad peers).
  [[nodiscard]] double score_of(net::NodeId node) const {
    const auto it = scores_.find(node);
    if (it == scores_.end()) return kInitialScore;
    const PeerScore& s = it->second;
    if (s.liar) return 0.0;
    return (1.0 - kSpeedWeight) * s.availability + kSpeedWeight * s.speed;
  }

  [[nodiscard]] bool known(net::NodeId node) const {
    return scores_.count(node) != 0;
  }
  [[nodiscard]] bool is_liar(net::NodeId node) const {
    const auto it = scores_.find(node);
    return it != scores_.end() && it->second.liar;
  }
  [[nodiscard]] std::size_t tracked() const { return scores_.size(); }
  [[nodiscard]] std::size_t liars_marked() const { return liars_marked_; }

 private:
  struct PeerScore {
    double availability;
    double speed;
    bool liar = false;
  };

  PeerScore& entry(net::NodeId node) {
    const auto it = scores_.find(node);
    if (it != scores_.end()) return it->second;
    return scores_
        .emplace(node, PeerScore{kInitialScore, kInitialScore, false})
        .first->second;
  }

  std::map<net::NodeId, PeerScore> scores_;
  std::size_t liars_marked_ = 0;
};

}  // namespace jacepp::core
