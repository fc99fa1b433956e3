// CRC-32 kernel and combine: known answers, the slicing-by-8 loop against a
// byte-at-a-time reference at every short length and alignment, and
// crc32_combine against the CRC of the concatenation.
#include "serial/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

namespace jacepp::serial {
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

TEST(Crc32, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(Bytes{}), 0u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesReferenceAtEveryShortLengthAndOffset) {
  std::mt19937_64 rng(11);
  const Bytes buffer = random_bytes(rng, 300 + 16);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = buffer.data() + offset;
      ASSERT_EQ(crc32(p, len), reference_crc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, MatchesReferenceOnLargeBuffers) {
  std::mt19937_64 rng(12);
  for (int round = 0; round < 4; ++round) {
    const Bytes buffer = random_bytes(rng, 64 << 10);
    EXPECT_EQ(crc32(buffer), reference_crc32(buffer.data(), buffer.size()));
  }
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
