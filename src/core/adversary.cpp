#include "core/adversary.hpp"

#include "core/messages.hpp"

namespace jacepp::core {

void CorruptingEnv::send(const net::Stub& to, net::Message m) {
  // Forge selected result-bearing messages in flight. Decode → perturb →
  // re-encode keeps the body length identical, so the wire-cost model (and
  // therefore every timestamp in the simulation) matches the honest run.
  if (m.type == msg::AuditReply::kType && lie_rng_.chance(lie_rate_)) {
    auto reply = net::payload_of<msg::AuditReply>(m);
    // Identity-dependent perturbation: always nonzero (a lie never equals the
    // honest digest), and distinct per liar node — independent liars cannot
    // accidentally agree with each other and outvote an honest replica.
    reply.digest ^= 0x5A5A5A5A5A5A5A5Aull ^
                    (self().node * 0x9E3779B97F4A7C15ull);
    ++corruptions_;
    inner_->send(to, net::make_message(reply));
    return;
  }
  if (m.type == msg::TaskData::kType && lie_rng_.chance(lie_rate_)) {
    auto data = net::payload_of<msg::TaskData>(m);
    if (!data.payload.empty()) {
      // The payload views the honest message's body; forge a copy.
      serial::Bytes forged(data.payload.begin(), data.payload.end());
      forged[lie_rng_.index(forged.size())] ^= 0x01;
      data.payload = forged;
      ++corruptions_;
      inner_->send(to, net::make_message(data));
      return;
    }
  }
  inner_->send(to, std::move(m));
}

}  // namespace jacepp::core
