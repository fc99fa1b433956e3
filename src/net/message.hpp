// Message envelope: a type tag plus a serialized body, with the sender's stub.
// This is the unit both transports (simulated and threaded) deliver.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "net/stub.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/serial.hpp"

namespace jacepp::net {

using MessageType = std::uint32_t;

/// Immutable, reference-counted message body. Copying a Message — checkpoint
/// fan-out to several backup peers, capture into the sim event queue, rt
/// mailbox hops — shares one underlying buffer instead of duplicating
/// checkpoint-sized payloads. The bytes are frozen at construction, so a
/// payload may be read concurrently from any number of runtime threads.
class Payload {
 public:
  Payload() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): Bytes -> Payload is the
  // intended seam; every encode() call site keeps reading naturally.
  Payload(serial::Bytes bytes)
      : data_(std::make_shared<const serial::Bytes>(std::move(bytes))) {}

  [[nodiscard]] const serial::Bytes& bytes() const {
    static const serial::Bytes kEmpty;
    return data_ ? *data_ : kEmpty;
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator const serial::Bytes&() const { return bytes(); }

  [[nodiscard]] std::size_t size() const { return data_ ? data_->size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// True when both payloads reference the same underlying buffer — the
  /// zero-copy invariant tests assert on.
  [[nodiscard]] bool shares_buffer_with(const Payload& other) const {
    return data_ != nullptr && data_ == other.data_;
  }

  /// Like the Bytes constructor, but the buffer's heap storage returns to the
  /// global serial::BufferPool when the LAST reference drops. Copies still
  /// share the one buffer (shares_buffer_with holds as usual); recycling
  /// happens strictly after the refcount reaches zero, so no live reader can
  /// ever observe a recycled buffer.
  [[nodiscard]] static Payload pooled(serial::Bytes bytes) {
    Payload p;
    p.data_ = std::shared_ptr<const serial::Bytes>(
        new serial::Bytes(std::move(bytes)), [](const serial::Bytes* b) {
          auto* owned = const_cast<serial::Bytes*>(b);
          serial::BufferPool::instance().release(std::move(*owned));
          delete owned;
        });
    return p;
  }

 private:
  std::shared_ptr<const serial::Bytes> data_;
};

struct Message {
  MessageType type = 0;
  Stub from;                ///< sender stub (filled by the sending Env)
  Payload body;             ///< serialized payload (shared, immutable)

  /// Size in bytes on the wire, used by the simulator's bandwidth model.
  /// Envelope overhead approximates a small RMI/TCP header.
  [[nodiscard]] std::size_t wire_size() const { return body.size() + 48; }
};

/// Build a message from a typed payload: T must expose
/// `static constexpr MessageType kType` and be a wire struct (serial.hpp).
/// The body is encoded into a pool-recycled buffer and returns to the pool
/// when the message's last copy dies — the per-message steady-state send path
/// performs no body allocation (beyond the shared_ptr control block).
template <typename T>
Message make_message(const T& payload) {
  Message m;
  m.type = T::kType;
  serial::Writer writer(serial::BufferPool::instance().acquire());
  writer.object(payload);
  m.body = Payload::pooled(writer.take());
  return m;
}

/// Decode a message body as T. Aborts on malformed body (internal traffic).
template <typename T>
T payload_of(const Message& m) {
  JACEPP_CHECK(m.type == T::kType, "payload_of: message type mismatch");
  return serial::decode<T>(m.body.bytes());
}

}  // namespace jacepp::net
