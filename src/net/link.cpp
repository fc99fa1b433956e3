#include "net/link.hpp"

#include <utility>

#include "serial/checksum.hpp"
#include "serial/serial.hpp"
#include "support/assert.hpp"

namespace jacepp::net {

Message pack_batch(const std::vector<Message>& parts) {
  JACEPP_ASSERT(parts.size() >= 2);
  serial::Writer sub;
  for (const Message& m : parts) {
    sub.varint(m.type);
    sub.bytes(m.body.bytes());
  }
  serial::Writer w;
  w.varint(parts.size());
  w.u32(serial::crc32(sub.data()));
  w.bytes(sub.data());
  Message envelope;
  envelope.type = kBatchMessageType;
  envelope.body = w.take();
  return envelope;
}

bool unpack_batch(const Message& envelope, std::vector<Message>& out) {
  out.clear();
  if (envelope.type != kBatchMessageType) return false;
  serial::Reader r(envelope.body.bytes());
  const std::uint64_t count = r.varint();
  const std::uint32_t crc = r.u32();
  const serial::Bytes sub = r.bytes();
  if (!r.ok() || !r.exhausted()) return false;
  if (serial::crc32(sub) != crc) return false;
  // The CRC does not cover the count. Every sub-message takes at least two
  // bytes (a type varint and a length varint), so a larger count is a lie;
  // refuse it before reserve() can throw on it.
  if (count > sub.size() / 2) return false;
  serial::Reader sr(sub);
  std::vector<Message> parts;
  parts.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Message m;
    m.type = static_cast<MessageType>(sr.varint());
    m.from = envelope.from;
    m.body = sr.bytes();
    if (!sr.ok()) return false;
    parts.push_back(std::move(m));
  }
  if (!sr.exhausted()) return false;
  out = std::move(parts);
  return true;
}

Link::Link(const LinkConfig* config, CommStats* stats)
    : config_(config), stats_(stats) {
  JACEPP_ASSERT(config_ != nullptr && stats_ != nullptr);
}

void Link::enqueue(Message message, const Stub& to) {
  const Classification cls = config_->classifier != nullptr
                                 ? config_->classifier(message)
                                 : Classification{};
  stats_->enqueued.fetch_add(1, std::memory_order_relaxed);
  const std::size_t bytes = message.wire_size();

  if (cls.cls == DeliveryClass::Data && config_->coalesce) {
    auto it = index_.find(Key{cls.key_hi, cls.key_lo});
    if (it != index_.end()) {
      // Latest wins: replace the superseded payload in place. Queue position
      // is preserved (the stream keeps its turn on the wire) and the old
      // Payload's refcount drops here — no tombstone, no copy.
      Pending* p = it->second;
      live_bytes_ = live_bytes_ - p->bytes + bytes;
      p->msg = std::move(message);
      p->to = to;
      p->bytes = bytes;
      stats_->coalesced.fetch_add(1, std::memory_order_relaxed);
      stats_->note_queue_bytes(live_bytes_);
      enforce_budget();
      return;
    }
  }

  queue_.push_back(Pending{std::move(message), to, cls, bytes, false});
  ++live_count_;
  live_bytes_ += bytes;
  if (cls.cls == DeliveryClass::Data && config_->coalesce) {
    index_.emplace(Key{cls.key_hi, cls.key_lo}, &queue_.back());
  }
  stats_->note_queue_bytes(live_bytes_);
  enforce_budget();
}

void Link::enforce_budget() {
  while ((live_bytes_ > config_->max_queue_bytes ||
          live_count_ > config_->max_queue_messages) &&
         drop_oldest_data()) {
  }
}

bool Link::drop_oldest_data() {
  for (Pending& p : queue_) {
    if (p.dead || p.cls.cls != DeliveryClass::Data) continue;
    p.dead = true;
    p.msg = Message{};  // release the payload buffer now, not at pop time
    --live_count_;
    live_bytes_ -= p.bytes;
    ++dead_count_;
    index_.erase(Key{p.cls.key_hi, p.cls.key_lo});
    stats_->dropped_data.fetch_add(1, std::memory_order_relaxed);
    if (dead_count_ > live_count_ + 8) compact();
    return true;
  }
  return false;  // all-control queue: never dropped, budget may be exceeded
}

void Link::compact() {
  std::deque<Pending> fresh;
  for (Pending& p : queue_) {
    if (!p.dead) fresh.push_back(std::move(p));
  }
  queue_ = std::move(fresh);
  dead_count_ = 0;
  index_.clear();
  for (Pending& p : queue_) {
    if (p.cls.cls == DeliveryClass::Data && config_->coalesce) {
      index_[Key{p.cls.key_hi, p.cls.key_lo}] = &p;
    }
  }
}

void Link::pop_front_entry() {
  Pending& front = queue_.front();
  if (front.dead) {
    --dead_count_;
  } else {
    --live_count_;
    live_bytes_ -= front.bytes;
    if (front.cls.cls == DeliveryClass::Data) {
      index_.erase(Key{front.cls.key_hi, front.cls.key_lo});
    }
  }
  queue_.pop_front();
}

std::optional<WireFrame> Link::next_wire_frame() {
  while (!queue_.empty() && queue_.front().dead) pop_front_entry();
  if (queue_.empty()) return std::nullopt;

  Pending& front = queue_.front();
  WireFrame frame;
  frame.to = front.to;

  if (front.cls.cls == DeliveryClass::Data) {
    // Data travels alone: its Payload goes to the wire untouched (zero-copy
    // from producer to consumer, PR 1 invariant).
    frame.message = std::move(front.msg);
    pop_front_entry();
  } else {
    // Gather consecutive live Control messages to the same stub. Stops at a
    // live Data entry, a different destination stub, or the batch caps —
    // order across classes is preserved.
    std::vector<Message> parts;
    std::size_t body_bytes = 0;
    std::size_t last_taken = 0;
    std::size_t i = 0;
    for (Pending& p : queue_) {
      if (!p.dead) {
        if (p.cls.cls == DeliveryClass::Data || !(p.to == frame.to)) break;
        const std::size_t sz = p.msg.body.size();
        if (!parts.empty() && (parts.size() >= config_->max_batch_messages ||
                               body_bytes + sz > config_->max_batch_bytes)) {
          break;
        }
        parts.push_back(std::move(p.msg));
        body_bytes += sz;
        last_taken = i;
      }
      ++i;
    }
    for (std::size_t n = 0; n <= last_taken; ++n) pop_front_entry();
    if (parts.size() == 1) {
      frame.message = std::move(parts.front());
    } else {
      frame.message = pack_batch(parts);
      stats_->batches.fetch_add(1, std::memory_order_relaxed);
      stats_->batched_messages.fetch_add(parts.size(),
                                         std::memory_order_relaxed);
    }
  }

  stats_->wire_frames.fetch_add(1, std::memory_order_relaxed);
  stats_->wire_bytes.fetch_add(frame.message.wire_size(),
                               std::memory_order_relaxed);
  return frame;
}

}  // namespace jacepp::net
