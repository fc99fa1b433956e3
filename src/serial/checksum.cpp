#include "serial/checksum.hpp"

#include "support/assert.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define JACEPP_CRC32_FOLD 1
#include <immintrin.h>
#endif

namespace jacepp::serial {

namespace {

#ifdef JACEPP_CRC32_FOLD

/// x^n modulo the polynomial, bit-reflected and multiplied by x: the 33-bit
/// form in which a carry-less multiply of reflected operands needs it.
constexpr std::uint64_t fold_constant(std::uint64_t n) {
  std::uint32_t p = std::uint32_t{1} << 31;  // x^0
  for (std::size_t k = 0; n != 0; n >>= 1, ++k) {
    if ((n & 1) != 0) p = detail::crc32_multmodp(detail::kCrc32X2n[k & 31], p);
  }
  return std::uint64_t{p} << 1;
}

// A 128-bit lane's two halves move 4 lanes (512 bits) ahead with
// x^(512 + 32) and x^(512 - 32), one lane ahead with x^(128 + 32) and
// x^(128 - 32); x^64 folds the last 64 bits into 32. These are the
// published constants of Intel's paper and Linux's crc32-pclmul.
constexpr std::uint64_t kFold4Lo = fold_constant(544);
constexpr std::uint64_t kFold4Hi = fold_constant(480);
constexpr std::uint64_t kFold1Lo = fold_constant(160);
constexpr std::uint64_t kFold1Hi = fold_constant(96);
constexpr std::uint64_t kFold64 = fold_constant(64);
static_assert(kFold4Lo == 0x154442bd4 && kFold4Hi == 0x1c6e41596);
static_assert(kFold1Lo == 0x1751997d0 && kFold1Hi == 0x0ccaa009e);
static_assert(kFold64 == 0x163cd6124);
// Barrett reduction: the polynomial P and floor(x^64 / P), both reflected
// over 33 bits.
constexpr std::uint64_t kPoly = 0x1db710641;
constexpr std::uint64_t kMu = 0x1f7011641;

__attribute__((target("pclmul,sse4.1"))) inline __m128i fold_lane(
    __m128i lane, __m128i constants, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(lane, constants, 0x00),
                    _mm_clmulepi64_si128(lane, constants, 0x11)),
      next);
}

inline __m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Feeds `size` bytes (at least 64, a multiple of 16) into the CRC register
/// `c` and returns the register, as detail::crc32_slicing_by_8 would.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_blocks(
    std::uint32_t c, const std::uint8_t* p, std::size_t size) {
  const __m128i fold4 = _mm_set_epi64x(static_cast<long long>(kFold4Hi),
                                       static_cast<long long>(kFold4Lo));
  const __m128i fold1 = _mm_set_epi64x(static_cast<long long>(kFold1Hi),
                                       static_cast<long long>(kFold1Lo));
  __m128i x0 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  for (p += 64, size -= 64; size >= 64; p += 64, size -= 64) {
    x0 = fold_lane(x0, fold4, load16(p));
    x1 = fold_lane(x1, fold4, load16(p + 16));
    x2 = fold_lane(x2, fold4, load16(p + 32));
    x3 = fold_lane(x3, fold4, load16(p + 48));
  }
  // Four lanes into one, then the remaining 16-byte blocks.
  x0 = fold_lane(x0, fold1, x1);
  x0 = fold_lane(x0, fold1, x2);
  x0 = fold_lane(x0, fold1, x3);
  for (; size >= 16; p += 16, size -= 16) x0 = fold_lane(x0, fold1, load16(p));

  // 128 bits to 64 (which appends the register's 32 zero bits), 64 to 32.
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(fold1, x0, 0x01),
                     _mm_srli_si128(x0, 8));
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32),
                           _mm_set_epi64x(0, static_cast<long long>(kFold64)),
                           0x00),
      _mm_srli_si128(x0, 4));
  // Barrett: the quotient by P, times P, cancels all but the remainder.
  const __m128i barrett = _mm_set_epi64x(static_cast<long long>(kMu),
                                         static_cast<long long>(kPoly));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(t, x0), 1));
}

#endif  // JACEPP_CRC32_FOLD

bool fold_supported() {
#ifdef JACEPP_CRC32_FOLD
  // Static initializers may run before libgcc's own CPU probe.
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

/// CRC-32 with the fold taking the whole 16-byte blocks of an input of at
/// least 64 bytes and slicing-by-8 the rest, in one register.
std::uint32_t crc32_folded(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
#ifdef JACEPP_CRC32_FOLD
  if (size >= 64) {
    const std::size_t blocks = size & ~std::size_t{15};
    c = fold_blocks(c, data, blocks);
    data += blocks;
    size -= blocks;
  }
#endif
  return detail::crc32_slicing_by_8(c, data, size) ^ 0xFFFFFFFFu;
}

// Whether crc32() folds. It is constant-initialized to false, so a call made
// before dynamic initialization is served by slicing-by-8, and set once at
// start-up.
bool g_fold = false;
[[maybe_unused]] const bool g_picked = [] {
  g_fold = fold_supported();
  return true;
}();

}  // namespace

const char* crc32_kernel_name(Crc32Kernel kernel) {
  return kernel == Crc32Kernel::fold ? "fold" : "slicing-by-8";
}

Crc32Kernel crc32_active_kernel() {
  return g_fold ? Crc32Kernel::fold : Crc32Kernel::slicing_by_8;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  return g_fold ? crc32_folded(data, size) : crc32_portable(data, size);
}

std::uint32_t crc32_fold(const std::uint8_t* data, std::size_t size) {
  JACEPP_CHECK(g_fold, "crc32_fold: the fold is not picked on this CPU");
  return crc32_folded(data, size);
}

}  // namespace jacepp::serial
