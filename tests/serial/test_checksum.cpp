// CRC-32 kernels and combine: known answers and each kernel (slicing-by-8,
// and the fold where the CPU has it) against a byte-at-a-time reference at
// every short length and alignment; the start-up pick; crc32_combine against
// the CRC of the concatenation.
#include "serial/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <random>
#include <string>

namespace jacepp::serial {

// Names each kernel case by its kernel (gtest finds this by argument lookup).
void PrintTo(Crc32Kernel kernel, std::ostream* os) {
  *os << crc32_kernel_name(kernel);
}

namespace {

/// The textbook bit-serial CRC-32 (reflected 0xEDB88320): the reference the
/// table-driven kernel must reproduce bit for bit.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

Bytes random_bytes(std::mt19937_64& rng, std::size_t size) {
  Bytes out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// One kernel's cases; the fold's skip where the fold is not picked.
class Crc32 : public ::testing::TestWithParam<Crc32Kernel> {
 protected:
  void SetUp() override {
    if (GetParam() == Crc32Kernel::fold &&
        crc32_active_kernel() != Crc32Kernel::fold) {
      GTEST_SKIP() << "this CPU or build has no PCLMULQDQ and SSE4.1 fold";
    }
  }

  static std::uint32_t crc(const std::uint8_t* data, std::size_t size) {
    return GetParam() == Crc32Kernel::fold ? crc32_fold(data, size)
                                           : crc32_portable(data, size);
  }
};

TEST_P(Crc32, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc(reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc(nullptr, 0), 0u);
  // 64 bytes, the fold's shortest input: zeros, and 0x00..0x3f.
  Bytes block(64, 0);
  EXPECT_EQ(crc(block.data(), block.size()), 0x758D6336u);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(crc(block.data(), block.size()), 0x100ECE8Cu);
}

TEST_P(Crc32, MatchesReferenceAtEveryShortLengthAndOffset) {
  std::mt19937_64 rng(11);
  const Bytes buffer = random_bytes(rng, 300 + 16);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = buffer.data() + offset;
      ASSERT_EQ(crc(p, len), reference_crc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST_P(Crc32, MatchesReferenceOnLargeBuffers) {
  std::mt19937_64 rng(12);
  for (int round = 0; round < 4; ++round) {
    const Bytes buffer = random_bytes(rng, (64 << 10) + round * 7);
    EXPECT_EQ(crc(buffer.data(), buffer.size()),
              reference_crc32(buffer.data(), buffer.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Crc32,
                         ::testing::Values(Crc32Kernel::slicing_by_8,
                                           Crc32Kernel::fold));

TEST(Crc32Pick, FoldExactlyWhereCpuidReportsPclmulAndSse41) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  const bool cpu_has_fold = __builtin_cpu_supports("pclmul") &&
                            __builtin_cpu_supports("sse4.1");
#else
  const bool cpu_has_fold = false;
#endif
  EXPECT_EQ(crc32_active_kernel(),
            cpu_has_fold ? Crc32Kernel::fold : Crc32Kernel::slicing_by_8);
  // crc32() runs the picked kernel.
  std::mt19937_64 rng(14);
  const Bytes buffer = random_bytes(rng, 3104);
  EXPECT_EQ(crc32(buffer), crc32_portable(buffer.data(), buffer.size()));
  EXPECT_EQ(crc32(Bytes{}), 0u);
}

TEST(Crc32, CombineEqualsCrcOfConcatenation) {
  std::mt19937_64 rng(13);
  const Bytes buffer = random_bytes(rng, 70000);
  std::uniform_int_distribution<std::size_t> length(0, buffer.size());
  for (int round = 0; round < 200; ++round) {
    const std::size_t total = length(rng);
    // Every fifth split puts all the bytes on one side.
    std::uniform_int_distribution<std::size_t> at(0, total);
    std::size_t split = at(rng);
    if (round % 5 == 0) split = (round / 5) % 2 == 0 ? 0 : total;
    const std::uint8_t* p = buffer.data();
    EXPECT_EQ(crc32_combine(crc32(p, split), crc32(p + split, total - split),
                            total - split),
              crc32(p, total))
        << "total " << total << " split " << split;
  }
  EXPECT_EQ(crc32_combine(0, 0, 0), 0u);
}

}  // namespace
}  // namespace jacepp::serial
