// Portable binary serialization: the jacepp "wire format".
//
// Every protocol message body and every Task checkpoint (Backup) is encoded
// through Writer/Reader, in both the simulator and the threaded runtime, so the
// exact code path a socket deployment would use is always exercised.
//
// Encoding rules:
//   * fixed-width integers little-endian;
//   * unsigned varint (LEB128) for lengths and u64 varints;
//   * doubles as IEEE-754 bit patterns;
//   * containers as varint length + elements.
//
// Field lists. A wire struct names its members once, in wire order:
//
//   struct FetchBackup {
//     AppId app_id = 0;
//     TaskId task_id = 0;
//     JACEPP_WIRE_FIELDS(app_id, task_id)
//   };
//
// and Writer::object / Reader::object<T> walk that list, giving each member
// the encoding of its C++ type:
//   std::uint8_t, std::uint8_t-backed enums -> u8
//   std::uint32_t -> u32            std::uint64_t -> u64
//   bool -> boolean                 double -> f64
//   std::string -> str              Bytes -> bytes
//   ByteView -> bytes (decodes as a view into the reader's buffer)
//   std::vector<std::uint32_t> -> u32_vector
//   std::vector<double, A> -> f64_vector (any allocator)
//   std::vector<T> of wire structs -> object_vector
//   a nested wire struct -> its own fields, inline.
// Only this file maps a C++ type to its wire encoding, so no struct states its
// field order twice. A type outside the rule must hand-write
// `void serialize(Writer&) const` and `static T deserialize(Reader&)`;
// linalg::CsrMatrix is the one struct that does (varint dimensions, and its
// constructor validates the shape). Writer::object_size gives the byte length
// of any wire value by the same rule, so encode() writes into a buffer of
// exactly that size. A task's checkpoint state is a field list too
// (core/task.hpp). Two codecs call Writer/Reader directly because they
// are not field lists: the checkpoint frame codec (CRCs, chunk loops) and the
// link Batch envelope (CRC over packed sub-messages).
//
// Reader never reads out of bounds: all failures surface via ok()/error() and
// reads after failure return zero values (monadic poisoning), so decoding
// malformed input is always safe.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/assert.hpp"

/// Declares a wire struct's members, in wire order (see the header comment).
#define JACEPP_WIRE_FIELDS(...)                         \
  auto fields() const { return std::tie(__VA_ARGS__); } \
  auto fields() { return std::tie(__VA_ARGS__); }

namespace jacepp::serial {

using Bytes = std::vector<std::uint8_t>;

/// Bytes that live in someone else's buffer. Encodes exactly like Bytes
/// (varint length, then the bytes); Reader decodes it as a view into the
/// buffer being read, so it is valid only while that buffer is: a TaskData
/// payload points into its message's body.
using ByteView = std::span<const std::uint8_t>;

/// A struct declared with JACEPP_WIRE_FIELDS.
template <typename T>
concept FieldList = requires(const T& value) { value.fields(); };

/// A field list with no members, such as `Heartbeat`: it encodes to no bytes.
template <typename T>
concept EmptyFieldList =
    FieldList<T> &&
    std::tuple_size_v<decltype(std::declval<const T&>().fields())> == 0;

namespace detail {
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
inline constexpr bool kIsF64Vector = false;
template <typename A>
inline constexpr bool kIsF64Vector<std::vector<double, A>> = true;
}  // namespace detail

/// Encoded byte length of varint(v) — for sizing an encoding before writing
/// it (Writer::object_size, and the checkpoint frame codec).
inline std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

class Writer {
 public:
  Writer() = default;

  /// Adopt a recycled buffer (serial/buffer_pool.hpp): content is discarded,
  /// capacity is kept, so encoding into it usually allocates nothing.
  explicit Writer(Bytes seed) : buffer_(std::move(seed)) { buffer_.clear(); }

  void u8(std::uint8_t v) { buffer_.push_back(v); }

  void u16(std::uint16_t v) {
    buffer_.push_back(static_cast<std::uint8_t>(v));
    buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  /// Unsigned LEB128 varint.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buffer_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buffer_.push_back(static_cast<std::uint8_t>(v));
  }

  void str(const std::string& s) {
    varint(s.size());
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }

  void bytes(const Bytes& b) { bytes(b.data(), b.size()); }

  /// Same encoding as bytes(Bytes) for a range inside a larger buffer.
  void bytes(const std::uint8_t* data, std::size_t size) {
    varint(size);
    buffer_.insert(buffer_.end(), data, data + size);
  }

  /// Vector of doubles: varint length + raw IEEE-754 payload. Templated over
  /// the allocator so over-aligned kernel vectors (linalg::Vector,
  /// support/aligned.hpp) encode through the same bulk path — the wire format
  /// does not change with the storage alignment.
  template <typename Alloc>
  void f64_vector(const std::vector<double, Alloc>& v) {
    f64_vector(v.data(), v.size());
  }

  /// Same encoding as f64_vector for `count` doubles inside a larger vector.
  void f64_vector(const double* values, std::size_t count) {
    varint(count);
    append_le(values, count);
  }

  /// Braced-list convenience: `{1.0, 2.0}` cannot deduce the allocator above.
  void f64_vector(std::initializer_list<double> v) {
    varint(v.size());
    append_le(v.begin(), v.size());
  }

  void u32_vector(const std::vector<std::uint32_t>& v) {
    varint(v.size());
    append_le(v.data(), v.size());
  }

  void u64_vector(const std::vector<std::uint64_t>& v) {
    varint(v.size());
    append_le(v.data(), v.size());
  }

  /// Encode any wire value by the type -> encoding rule (header comment).
  template <typename T>
  void object(const T& value) {
    if constexpr (FieldList<T>) {
      std::apply([this](const auto&... field) { (object(field), ...); },
                 value.fields());
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(std::is_same_v<std::underlying_type_t<T>, std::uint8_t>);
      u8(static_cast<std::uint8_t>(value));
    } else if constexpr (std::is_same_v<T, bool>) {
      boolean(value);
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      u8(value);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      u32(value);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      u64(value);
    } else if constexpr (std::is_same_v<T, double>) {
      f64(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
      str(value);
    } else if constexpr (std::is_same_v<T, Bytes> ||
                         std::is_same_v<T, ByteView>) {
      bytes(value.data(), value.size());
    } else if constexpr (std::is_same_v<T, std::vector<std::uint32_t>>) {
      u32_vector(value);
    } else if constexpr (detail::kIsF64Vector<T>) {
      f64_vector(value);
    } else if constexpr (detail::kIsVector<T>) {
      object_vector(value);
    } else {
      static_assert(requires(Writer& w) { value.serialize(w); },
                    "no wire encoding: declare JACEPP_WIRE_FIELDS");
      value.serialize(*this);
    }
  }

  /// Byte length of object(value), by the same type -> encoding rule. A
  /// hand-written type is measured by encoding it; the one such type,
  /// linalg::CsrMatrix, is only encoded at set-up.
  template <typename T>
  static std::size_t object_size(const T& value) {
    if constexpr (FieldList<T>) {
      return std::apply(
          [](const auto&... field) {
            return (std::size_t{0} + ... + object_size(field));
          },
          value.fields());
    } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool> ||
                         std::is_same_v<T, std::uint8_t>) {
      return 1;
    } else if constexpr (std::is_same_v<T, std::uint32_t> ||
                         std::is_same_v<T, std::uint64_t> ||
                         std::is_same_v<T, double>) {
      return sizeof(T);
    } else if constexpr (std::is_same_v<T, std::string> ||
                         std::is_same_v<T, Bytes> ||
                         std::is_same_v<T, ByteView> ||
                         std::is_same_v<T, std::vector<std::uint32_t>> ||
                         detail::kIsF64Vector<T>) {
      return varint_size(value.size()) +
             value.size() * sizeof(typename T::value_type);
    } else if constexpr (detail::kIsVector<T>) {
      std::size_t size = varint_size(value.size());
      for (const auto& v : value) size += object_size(v);
      return size;
    } else {
      Writer writer;
      writer.object(value);
      return writer.size();
    }
  }

  template <typename T>
  void object_vector(const std::vector<T>& values) {
    varint(values.size());
    for (const auto& v : values) object(v);
  }

  [[nodiscard]] const Bytes& data() const { return buffer_; }
  [[nodiscard]] Bytes take() { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  /// Bulk little-endian append: one memcpy on little-endian hosts (the wire
  /// format IS little-endian), element-wise byte shuffling otherwise.
  template <typename T>
  void append_le(const T* values, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    // An empty vector's data() may be null, which memcpy must not receive.
    if (count == 0) return;
    if constexpr (std::endian::native == std::endian::little) {
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(values);
      buffer_.insert(buffer_.end(), bytes, bytes + count * sizeof(T));
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t bits;
        if constexpr (std::is_same_v<T, double>) {
          bits = std::bit_cast<std::uint64_t>(values[i]);
        } else {
          bits = static_cast<std::uint64_t>(values[i]);
        }
        for (std::size_t b = 0; b < sizeof(T); ++b) {
          buffer_.push_back(static_cast<std::uint8_t>(bits >> (8 * b)));
        }
      }
    }
  }

  Bytes buffer_;
};

class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data.data()), size_(data.size()) {}
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(ByteView data) : data_(data.data()), size_(data.size()) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Marks the input malformed: ok() turns false and every later read
  /// returns a zero value. Hand-written deserializers call it when the
  /// fields decode but do not fit together.
  void poison(const char* why) {
    ok_ = false;
    error_ = why;
  }

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return data_[pos_++];
  }

  std::uint16_t u16() {
    if (!require(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                      static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    if (!require(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    if (!require(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  bool boolean() {
    std::uint8_t v = u8();
    if (ok_ && v > 1) poison("invalid boolean byte");
    return v == 1;
  }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (!require(1)) return 0;
      std::uint8_t byte = data_[pos_++];
      if (shift == 63 && (byte & 0x7e) != 0) {
        poison("varint overflow");
        return 0;
      }
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
      if (shift > 63) {
        poison("varint too long");
        return 0;
      }
    }
    return v;
  }

  std::string str() {
    std::uint64_t len = varint();
    if (!ok_ || !require(len)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  Bytes bytes() {
    const ByteView view = byte_view();
    return Bytes(view.begin(), view.end());
  }

  /// A bytes() field left in place: a view of it inside the buffer being
  /// read, with no copy.
  ByteView byte_view() {
    const std::uint64_t len = varint();
    if (!ok_) return {};
    // Clamp against the remaining payload BEFORE allocating: an adversarial
    // length must poison the reader, not attempt a multi-gigabyte allocation.
    if (len > remaining()) {
      poison("bytes length exceeds payload");
      return {};
    }
    const ByteView view(data_ + pos_, static_cast<std::size_t>(len));
    pos_ += len;
    return view;
  }

  /// Decode a double vector. The vector type is a template parameter so call
  /// sites can decode straight into an over-aligned container
  /// (`r.f64_vector<linalg::Vector>()`); the default keeps the historical
  /// std::vector<double> return.
  template <typename Vec = std::vector<double>>
  Vec f64_vector() {
    static_assert(std::is_same_v<typename Vec::value_type, double>);
    return vector_le<Vec>();
  }

  /// An f64_vector of exactly `count` doubles, left in place: checks the
  /// length and that count * 8 bytes follow, skips them and returns where
  /// they start (read each with load_f64). Any other length, or a short
  /// payload, poisons the reader and returns nullptr.
  const std::uint8_t* f64_vector_in_place(std::size_t count) {
    const std::uint64_t len = varint();
    if (!ok_) return nullptr;
    if (len != count || len > remaining() / sizeof(double)) {
      poison(len != count ? "unexpected vector length"
                          : "vector length exceeds payload");
      return nullptr;
    }
    const std::uint8_t* start = data_ + pos_;
    pos_ += count * sizeof(double);
    return start;
  }

  std::vector<std::uint32_t> u32_vector() {
    return vector_le<std::vector<std::uint32_t>>();
  }

  std::vector<std::uint64_t> u64_vector() {
    return vector_le<std::vector<std::uint64_t>>();
  }

  /// Decode any wire value by the type -> encoding rule (header comment).
  template <typename T>
  T object() {
    if constexpr (FieldList<T>) {
      T value{};
      std::apply(
          [this](auto&... field) {
            ((field = object<std::remove_reference_t<decltype(field)>>()), ...);
          },
          value.fields());
      return value;
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(std::is_same_v<std::underlying_type_t<T>, std::uint8_t>);
      return static_cast<T>(u8());
    } else if constexpr (std::is_same_v<T, bool>) {
      return boolean();
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      return u8();
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      return u32();
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      return u64();
    } else if constexpr (std::is_same_v<T, double>) {
      return f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      return str();
    } else if constexpr (std::is_same_v<T, Bytes>) {
      return bytes();
    } else if constexpr (std::is_same_v<T, ByteView>) {
      return byte_view();
    } else if constexpr (std::is_same_v<T, std::vector<std::uint32_t>>) {
      return u32_vector();
    } else if constexpr (detail::kIsF64Vector<T>) {
      return f64_vector<T>();
    } else if constexpr (detail::kIsVector<T>) {
      return object_vector<typename T::value_type>();
    } else {
      static_assert(requires { T::deserialize(*this); },
                    "no wire encoding: declare JACEPP_WIRE_FIELDS");
      return T::deserialize(*this);
    }
  }

  template <typename T>
  std::vector<T> object_vector() {
    std::uint64_t len = varint();
    // Sanity cap: an element takes at least one byte, so a valid count can
    // never exceed the remaining payload.
    if (!ok_ || len > remaining()) {
      if (ok_) poison("object_vector length exceeds payload");
      return {};
    }
    std::vector<T> v;
    v.reserve(len);
    for (std::uint64_t i = 0; i < len && ok_; ++i) v.push_back(object<T>());
    return v;
  }

 private:
  /// Bulk little-endian vector read shared by f64/u32/u64_vector: clamps the
  /// claimed element count against the remaining payload (dividing, so the
  /// byte count `len * sizeof(T)` can never wrap for adversarial lengths),
  /// then decodes with a single memcpy on little-endian hosts.
  template <typename Vec, typename T = typename Vec::value_type>
  Vec vector_le() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t len = varint();
    if (!ok_) return {};
    if (len > remaining() / sizeof(T)) {
      poison("vector length exceeds payload");
      return {};
    }
    if (len == 0) return {};  // memcpy must not receive an empty data()
    Vec v(static_cast<std::size_t>(len));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(v.data(), data_ + pos_, v.size() * sizeof(T));
      pos_ += v.size() * sizeof(T);
    } else {
      for (auto& e : v) {
        if constexpr (std::is_same_v<T, double>) {
          e = f64();
        } else if constexpr (sizeof(T) == 4) {
          e = u32();
        } else {
          e = u64();
        }
      }
    }
    return v;
  }

  bool require(std::uint64_t n) {
    if (!ok_) return false;
    if (remaining() < n) {
      poison("read past end of buffer");
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

/// The double whose IEEE-754 bits are stored little-endian at `p` (one
/// element of an f64_vector read in place).
inline double load_f64(const std::uint8_t* p) {
  std::uint64_t bits = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&bits, p, sizeof(bits));
  } else {
    for (int i = 0; i < 8; ++i) bits |= std::uint64_t{p[i]} << (8 * i);
  }
  return std::bit_cast<double>(bits);
}

/// An empty buffer from the process's BufferPool (serial/buffer_pool.hpp),
/// its capacity kept.
Bytes recycled_buffer();

/// Encode a wire value into a recycled buffer holding at least its size.
template <typename T>
Bytes encode(const T& value) {
  Bytes buffer = recycled_buffer();
  buffer.reserve(Writer::object_size(value));
  Writer writer(std::move(buffer));
  writer.object(value);
  return writer.take();
}

/// Decode a wire value; aborts on malformed input (internal use: payloads
/// produced by encode()). For untrusted input use Reader::object directly.
template <typename T>
T decode(const Bytes& data) {
  Reader reader(data);
  T value = reader.object<T>();
  JACEPP_CHECK(reader.ok(), "decode: malformed payload");
  return value;
}

}  // namespace jacepp::serial
