// Typed remote-invocation layer — jacepp's analogue of the paper's Java RMI
// usage. A "remote method" is a serializable payload struct with a unique
// `kType`; invoking it on a Stub is a oneway, loss-tolerant message send, and
// the receiving actor dispatches on the type tag through its class's Table.
//
//   void SuperPeer::handle_heartbeat(const msg::Heartbeat&,
//                                    const net::Message& raw, net::Env& env);
//
//   const rmi::Table<SuperPeer>& SuperPeer::table() {
//     static const rmi::Table<SuperPeer> table = [] {
//       rmi::Table<SuperPeer> t;
//       t.on<msg::Heartbeat, &SuperPeer::handle_heartbeat>();
//       ...
//       return t;
//     }();
//     return table;
//   }
//
//   void SuperPeer::on_message(const net::Message& m, net::Env& env) {
//     table().dispatch(*this, m, env);
//   }
//   ...
//   rmi::invoke(env, super_peer_stub, msg::Heartbeat{});
#pragma once

#include <cstdint>
#include <vector>

#include "net/env.hpp"
#include "net/message.hpp"
#include "serial/serial.hpp"
#include "support/assert.hpp"
#include "support/logging.hpp"

namespace jacepp::rmi {

/// Send a typed payload to a stub (fire-and-forget; may be lost).
template <typename T>
void invoke(net::Env& env, const net::Stub& to, const T& payload) {
  env.send(to, net::make_message(payload));
}

/// What Table::dispatch did with a message.
enum class Dispatch : std::uint8_t {
  Handled,    ///< the body decoded and its handler ran
  Unhandled,  ///< no handler for the type
  Malformed,  ///< the body did not decode as the type; no handler ran
};

/// One actor class's message table: a handler per message type, shared by
/// every instance of the class (build it once, in a function-local static).
/// Entries are plain function pointers indexed by type, so a dispatch is a
/// bounds check and one indirect call. The body arrives from a peer and is
/// untrusted: it is decoded with serial::Reader, and a body that does not
/// decode is dropped instead of aborting the process.
template <typename Self>
class Table {
 public:
  /// Handler for payload type T, a member of the actor class.
  template <typename T>
  using Handler = void (Self::*)(const T& payload, const net::Message& raw,
                                 net::Env& env);

  /// Types are small dense integers; this bounds the table's length.
  static constexpr net::MessageType kMaxType = 1023;

  /// Register `handler` for payload type T. Aborts on a second handler for
  /// the same type.
  template <typename T, Handler<T> handler>
  void on() {
    static_assert(T::kType <= kMaxType, "message type beyond rmi::Table range");
    if (entries_.size() <= T::kType) entries_.resize(T::kType + 1, nullptr);
    JACEPP_CHECK(entries_[T::kType] == nullptr,
                 "rmi::Table: duplicate handler for message type");
    entries_[T::kType] = &decode_and_run<T, handler>;
  }

  /// Run the handler for `message` on `self`. An unknown type or a malformed
  /// body is logged and dropped.
  Dispatch dispatch(Self& self, const net::Message& message,
                    net::Env& env) const {
    if (message.type >= entries_.size() || entries_[message.type] == nullptr) {
      JACEPP_LOG(Warn, "rmi", "unhandled message type %u from %s",
                 message.type, message.from.to_debug_string().c_str());
      return Dispatch::Unhandled;
    }
    return entries_[message.type](self, message, env);
  }

  [[nodiscard]] bool handles(net::MessageType type) const {
    return type < entries_.size() && entries_[type] != nullptr;
  }

  [[nodiscard]] std::size_t handler_count() const {
    std::size_t count = 0;
    for (const Entry entry : entries_) count += entry != nullptr ? 1 : 0;
    return count;
  }

 private:
  using Entry = Dispatch (*)(Self&, const net::Message&, net::Env&);

  template <typename T, Handler<T> handler>
  static Dispatch decode_and_run(Self& self, const net::Message& message,
                                 net::Env& env) {
    serial::Reader reader(message.body.bytes());
    const T payload = reader.object<T>();
    if (!reader.ok()) {
      JACEPP_LOG(Warn, "rmi", "dropped malformed message type %u from %s: %s",
                 message.type, message.from.to_debug_string().c_str(),
                 reader.error().c_str());
      return Dispatch::Malformed;
    }
    (self.*handler)(payload, message, env);
    return Dispatch::Handled;
  }

  std::vector<Entry> entries_;
};

}  // namespace jacepp::rmi
