// Message envelope: a type tag plus a serialized body, with the sender's stub.
// This is the unit both transports (simulated and threaded) deliver.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "net/stub.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/serial.hpp"

namespace jacepp::net {

using MessageType = std::uint32_t;

/// Immutable, reference-counted message body. Copying a Message — checkpoint
/// fan-out to several backup peers, rt mailbox hops — shares one underlying
/// buffer instead of duplicating checkpoint-sized payloads. The bytes are
/// frozen at construction, so a payload may be read concurrently from any
/// number of runtime threads.
///
/// A non-empty body is one serial::SharedBytes block from the BufferPool: an
/// atomic count of the handles sharing it, and the Bytes. When the last
/// handle drops, the block and its buffer's capacity go back to the pool,
/// strictly after the count reaches zero, so no live reader can observe a
/// recycled buffer. An empty body holds no block at all: building, copying
/// and dropping it touches neither the heap nor the pool (a heartbeat's
/// whole cost is its envelope).
class Payload {
 public:
  Payload() = default;
  /// Adopt `bytes` into a pooled block. Empty bytes make an empty body and
  /// hand their capacity straight back to the pool.
  // NOLINTNEXTLINE(google-explicit-constructor): Bytes -> Payload is the
  // intended seam; every encode() call site keeps reading naturally.
  Payload(serial::Bytes bytes) {
    if (bytes.empty()) {
      serial::BufferPool::instance().release(std::move(bytes));
    } else {
      block_ = serial::BufferPool::instance().adopt(std::move(bytes));
    }
  }
  Payload(const Payload& other) : block_(other.block_) {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Payload(Payload&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
  Payload& operator=(const Payload& other) {
    Payload copy(other);
    std::swap(block_, copy.block_);
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~Payload() {
    // A handle that sees a count of one is the only one left: no other
    // handle exists to copy or drop the block concurrently.
    if (block_ != nullptr &&
        (block_->refs.load(std::memory_order_acquire) == 1 ||
         block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)) {
      serial::BufferPool::instance().recycle(block_);
    }
  }

  [[nodiscard]] const serial::Bytes& bytes() const {
    static const serial::Bytes kEmpty;
    return block_ != nullptr ? block_->bytes : kEmpty;
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator const serial::Bytes&() const { return bytes(); }

  [[nodiscard]] std::size_t size() const {
    return block_ != nullptr ? block_->bytes.size() : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// True when both payloads reference the same underlying buffer — the
  /// zero-copy invariant tests assert on. Always false for empty bodies,
  /// which have no buffer.
  [[nodiscard]] bool shares_buffer_with(const Payload& other) const {
    return block_ != nullptr && block_ == other.block_;
  }

 private:
  serial::SharedBytes* block_ = nullptr;
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
/// no allocation. Any other body is encoded into a recycled buffer in a
/// recycled block, both of which return to the pool when the message's last
/// copy dies, so a warm send path does not allocate.
template <typename T>
Message make_message(const T& payload) {
  Message m;
  m.type = T::kType;
  if constexpr (!serial::EmptyFieldList<T>) m.body = serial::encode(payload);
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
