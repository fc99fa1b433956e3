// CRC-32 (ISO-HDLC polynomial, the zlib/PNG variant) for frame integrity.
//
// Checkpoint frames (core/checkpoint) carry two of these: one over the frame
// bytes themselves (detects a corrupted frame) and one over the state (a
// holder checks it again before serving the state to a restore, which
// detects a state damaged after it arrived).
//
// Two kernels give the same value for every input:
//   * slicing-by-8, portable: eight 256-entry tables let one step fold eight
//     input bytes, read as two little-endian 32-bit words, into the register
//     with eight independent lookups. It is the tests' reference and the only
//     path on a CPU or build without the fold.
//   * the fold (checksum.cpp), on x86-64 CPUs with PCLMULQDQ and SSE4.1:
//     carry-less multiplies fold 64 bytes per step into four 128-bit lanes,
//     which are folded into one and reduced to 32 bits (Intel's "Fast CRC
//     Computation Using PCLMULQDQ"). It takes a whole number of 16-byte
//     blocks from inputs of at least 64 bytes; slicing-by-8 feeds the tail
//     and every shorter input into the same register.
// crc32() runs the fold where the CPU has it, picked once at start-up from
// CPUID (DESIGN.md §10); no option or variable picks it.
// crc32_combine derives CRC(A || B) from CRC(A), CRC(B) and |B| without
// touching the bytes (zlib's algorithm), so a frame's CRC can be assembled
// from its header's CRC and a state CRC that was computed once.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "serial/serial.hpp"

namespace jacepp::serial {

namespace detail {

inline constexpr std::uint32_t kCrc32Poly = 0xEDB88320u;  // reflected

/// tables[0] is the byte-wise table; tables[k][b] is the register after
/// feeding byte b followed by k zero bytes.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? kCrc32Poly ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
  }
  return v;
}

/// a(x) * b(x) modulo the CRC polynomial, in the reflected bit order.
constexpr std::uint32_t crc32_multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = std::uint32_t{1} << 31;
  std::uint32_t p = 0;
  for (;;) {
    if ((a & m) != 0) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) != 0 ? (b >> 1) ^ kCrc32Poly : b >> 1;
  }
  return p;
}

/// kCrc32X2n[k] = x^(2^k) modulo the CRC polynomial. The powers repeat with
/// period 32 (x^(2^32) = x for this polynomial), so 32 entries cover any k.
constexpr std::array<std::uint32_t, 32> make_crc32_x2n() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = std::uint32_t{1} << 30;  // x^1
  t[0] = p;
  for (std::size_t k = 1; k < t.size(); ++k) t[k] = p = crc32_multmodp(p, p);
  return t;
}

inline constexpr std::array<std::uint32_t, 32> kCrc32X2n = make_crc32_x2n();

/// Feeds `size` bytes into the CRC register `c` by slicing-by-8 (no initial
/// or final XOR).
inline std::uint32_t crc32_slicing_by_8(std::uint32_t c,
                                        const std::uint8_t* data,
                                        std::size_t size) {
  const auto& t = kCrc32Tables;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = load_le32(data) ^ c;
    const std::uint32_t hi = load_le32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

}  // namespace detail

/// The CRC-32 kernels (header comment).
enum class Crc32Kernel : std::uint8_t { slicing_by_8 = 0, fold = 1 };

/// Lowercase name for reports and bench metadata: "slicing-by-8", "fold".
[[nodiscard]] const char* crc32_kernel_name(Crc32Kernel kernel);

/// The kernel crc32() runs: the fold in an x86-64 build on a CPU whose CPUID
/// reports PCLMULQDQ and SSE4.1, else slicing-by-8.
[[nodiscard]] Crc32Kernel crc32_active_kernel();

/// CRC-32 of `size` bytes at `data` (init/final XOR 0xFFFFFFFF, reflected),
/// by the kernel picked at start-up.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// crc32() by slicing-by-8 alone, whatever the CPU.
[[nodiscard]] inline std::uint32_t crc32_portable(const std::uint8_t* data,
                                                  std::size_t size) {
  return detail::crc32_slicing_by_8(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

/// crc32() by the fold; aborts where crc32_active_kernel() is not the fold.
[[nodiscard]] std::uint32_t crc32_fold(const std::uint8_t* data,
                                       std::size_t size);

inline std::uint32_t crc32(const Bytes& data) {
  return crc32(data.data(), data.size());
}

/// CRC-32 of A || B from crc_a = crc32(A), crc_b = crc32(B) and
/// len_b = |B|: multiply crc_a by x^(8 len_b) modulo the polynomial, then add
/// crc_b. O(log len_b), independent of the data.
inline std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                                   std::uint64_t len_b) {
  std::uint32_t shift = std::uint32_t{1} << 31;  // x^0
  for (std::size_t k = 3; len_b != 0; len_b >>= 1, ++k) {
    if ((len_b & 1) != 0) {
      shift = detail::crc32_multmodp(detail::kCrc32X2n[k & 31], shift);
    }
  }
  return detail::crc32_multmodp(shift, crc_a) ^ crc_b;
}

}  // namespace jacepp::serial
