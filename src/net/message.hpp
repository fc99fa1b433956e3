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
///
/// An empty body holds no buffer at all: building, copying and dropping it
/// touches neither the heap nor the BufferPool (a heartbeat's whole cost is
/// its envelope).
class Payload {
 public:
  Payload() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): Bytes -> Payload is the
  // intended seam; every encode() call site keeps reading naturally.
  Payload(serial::Bytes bytes) {
    if (!bytes.empty()) {
      data_ = std::make_shared<const serial::Bytes>(std::move(bytes));
    }
  }

  [[nodiscard]] const serial::Bytes& bytes() const {
    static const serial::Bytes kEmpty;
    return data_ ? *data_ : kEmpty;
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator const serial::Bytes&() const { return bytes(); }

  [[nodiscard]] std::size_t size() const { return data_ ? data_->size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// True when both payloads reference the same underlying buffer — the
  /// zero-copy invariant tests assert on. Always false for empty bodies,
  /// which have no buffer.
  [[nodiscard]] bool shares_buffer_with(const Payload& other) const {
    return data_ != nullptr && data_ == other.data_;
  }

  /// Like the Bytes constructor, but the buffer's heap storage returns to the
  /// global serial::BufferPool when the LAST reference drops. Copies still
  /// share the one buffer (shares_buffer_with holds as usual); recycling
  /// happens strictly after the refcount reaches zero, so no live reader can
  /// ever observe a recycled buffer. The refcount and the Bytes header share
  /// one heap block; an empty buffer hands its capacity straight back.
  [[nodiscard]] static Payload pooled(serial::Bytes bytes) {
    Payload p;
    if (bytes.empty()) {
      serial::BufferPool::instance().release(std::move(bytes));
      return p;
    }
    auto holder = std::make_shared<PooledBytes>(std::move(bytes));
    const serial::Bytes* view = &holder->bytes;
    p.data_ = std::shared_ptr<const serial::Bytes>(std::move(holder), view);
    return p;
  }

 private:
  /// Owner of a pooled buffer; its destructor runs when the last Payload
  /// sharing it drops, and hands the storage back to the pool.
  struct PooledBytes {
    explicit PooledBytes(serial::Bytes b) : bytes(std::move(b)) {}
    ~PooledBytes() { serial::BufferPool::instance().release(std::move(bytes)); }
    PooledBytes(const PooledBytes&) = delete;
    PooledBytes& operator=(const PooledBytes&) = delete;

    serial::Bytes bytes;
  };

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
/// A payload with no wire fields leaves the body empty: no pool access and
/// no allocation. Any other body is encoded into a pool-recycled buffer that
/// returns to the pool when the message's last copy dies, so the steady-state
/// send path allocates one block (refcount plus Bytes header) per message.
template <typename T>
Message make_message(const T& payload) {
  Message m;
  m.type = T::kType;
  if constexpr (!serial::EmptyFieldList<T>) {
    serial::Writer writer(serial::BufferPool::instance().acquire());
    writer.object(payload);
    m.body = Payload::pooled(writer.take());
  }
  return m;
}

/// Decode a message body as T. Aborts on malformed body (internal traffic);
/// actors receive peer messages through rmi::Table, which drops them instead.
template <typename T>
T payload_of(const Message& m) {
  JACEPP_CHECK(m.type == T::kType, "payload_of: message type mismatch");
  return serial::decode<T>(m.body.bytes());
}

}  // namespace jacepp::net
