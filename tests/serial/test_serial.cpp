#include "serial/serial.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "support/rng.hpp"

namespace jacepp::serial {
namespace {

TEST(Serial, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.boolean(true);
  w.boolean(false);

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serial, DoubleRoundTripSpecialValues) {
  const double values[] = {0.0, -0.0, 1.5, -3.25e300, 5e-324,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min()};
  Writer w;
  for (double v : values) w.f64(v);
  w.f64(std::nan(""));

  Reader r(w.data());
  for (double v : values) {
    EXPECT_EQ(r.f64(), v);
  }
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_TRUE(r.ok());
}

TEST(Serial, VarintBoundaries) {
  const std::uint64_t values[] = {0,       1,          127,      128,
                                  16383,   16384,      (1u << 21) - 1,
                                  1u << 21, 0xffffffffULL,
                                  0xffffffffffffffffULL};
  Writer w;
  for (auto v : values) w.varint(v);
  Reader r(w.data());
  for (auto v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serial, VarintEncodingSize) {
  Writer w;
  w.varint(127);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.varint(128);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Serial, StringRoundTrip) {
  Writer w;
  w.str("");
  w.str("hello world");
  w.str(std::string("\0binary\xff", 8));
  Reader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.str(), std::string("\0binary\xff", 8));
  EXPECT_TRUE(r.ok());
}

TEST(Serial, BytesRoundTrip) {
  Bytes payload{1, 2, 3, 255, 0, 128};
  Writer w;
  w.bytes(payload);
  w.bytes({});
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.ok());
}

TEST(Serial, F64VectorRoundTrip) {
  std::vector<double> v{1.0, -2.5, 3.14159, 0.0, 1e-300};
  Writer w;
  w.f64_vector(v);
  w.f64_vector(std::vector<double>{});  // empty: data() may be null
  Reader r(w.data());
  EXPECT_EQ(r.f64_vector(), v);
  EXPECT_TRUE(r.f64_vector().empty());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serial, IntegerVectorsRoundTrip) {
  std::vector<std::uint32_t> v32{0, 1, 0xffffffffu, 42};
  std::vector<std::uint64_t> v64{0, 0xffffffffffffffffULL, 7};
  Writer w;
  w.u32_vector(v32);
  w.u64_vector(v64);
  w.u32_vector({});
  w.u64_vector({});
  Reader r(w.data());
  EXPECT_EQ(r.u32_vector(), v32);
  EXPECT_EQ(r.u64_vector(), v64);
  EXPECT_TRUE(r.u32_vector().empty());
  EXPECT_TRUE(r.u64_vector().empty());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serial, ReadPastEndPoisons) {
  Writer w;
  w.u32(7);
  Reader r(w.data());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u32(), 0u);  // past end: zero value
  EXPECT_FALSE(r.ok());
  // Everything after poisoning stays zero and ok() stays false.
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Serial, TruncatedStringPoisons) {
  Writer w;
  w.varint(100);  // claims 100 bytes follow
  w.u8('x');      // only one does
  Reader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Serial, MalformedBooleanPoisons) {
  Bytes raw{7};
  Reader r(raw);
  (void)r.boolean();
  EXPECT_FALSE(r.ok());
}

TEST(Serial, OverlongVarintPoisons) {
  // 11 continuation bytes is more than a u64 can hold.
  Bytes raw(11, 0x80);
  raw.push_back(0x01);
  Reader r(raw);
  (void)r.varint();
  EXPECT_FALSE(r.ok());
}

TEST(Serial, VectorLengthOverflowPoisons) {
  // Adversarial length where len * sizeof(element) wraps a u64: before the
  // clamp this passed require() with a tiny byte count and then attempted a
  // huge allocation. (1 << 61) + 1 doubles "need" 8 bytes after wrapping.
  const std::uint64_t wrapping = (1ULL << 61) + 1;
  {
    Writer w;
    w.varint(wrapping);
    for (int i = 0; i < 16; ++i) w.u8(0xee);
    Reader r(w.data());
    EXPECT_TRUE(r.f64_vector().empty());
    EXPECT_FALSE(r.ok());
  }
  {
    Writer w;
    w.varint((1ULL << 62) + 2);  // * 4 wraps to 8
    for (int i = 0; i < 16; ++i) w.u8(0xee);
    Reader r(w.data());
    EXPECT_TRUE(r.u32_vector().empty());
    EXPECT_FALSE(r.ok());
  }
  {
    Writer w;
    w.varint((1ULL << 61) + 1);  // * 8 wraps to 8
    for (int i = 0; i < 16; ++i) w.u8(0xee);
    Reader r(w.data());
    EXPECT_TRUE(r.u64_vector().empty());
    EXPECT_FALSE(r.ok());
  }
}

TEST(Serial, VectorLengthBeyondPayloadPoisonsWithoutAllocating) {
  // A non-wrapping but absurd length (2^40 elements in a 10-byte buffer) must
  // poison before the std::vector allocation is attempted.
  Writer w;
  w.varint(1ULL << 40);
  w.u64(0);
  w.u16(0);
  Reader r(w.data());
  EXPECT_TRUE(r.f64_vector().empty());
  EXPECT_FALSE(r.ok());

  Reader r2(w.data());
  EXPECT_TRUE(r2.u32_vector().empty());
  EXPECT_FALSE(r2.ok());
}

TEST(Serial, BytesLengthBeyondPayloadPoisons) {
  Writer w;
  w.varint(0xffffffffffffffffULL);
  w.u8(1);
  Reader r(w.data());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Serial, TruncatedVectorPayloadPoisons) {
  // Length valid varint but fewer element bytes than claimed.
  Writer w;
  w.varint(3);         // claims 3 doubles = 24 bytes
  w.f64(1.5);          // only one follows
  Reader r(w.data());
  EXPECT_TRUE(r.f64_vector().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Serial, ObjectVectorLengthSanityCheck) {
  // A crafted header claiming 2^40 elements must poison, not allocate.
  Writer w;
  w.varint(1ULL << 40);
  struct Dummy {
    std::uint8_t b = 0;
    JACEPP_WIRE_FIELDS(b)
  };
  Reader r(w.data());
  const auto v = r.object_vector<Dummy>();
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(r.ok());
}

struct Point {
  double x = 0;
  double y = 0;
  JACEPP_WIRE_FIELDS(x, y)
  bool operator==(const Point&) const = default;
};

TEST(Serial, ObjectAndObjectVectorRoundTrip) {
  std::vector<Point> pts{{1, 2}, {-3, 4.5}, {0, 0}};
  Writer w;
  w.object(pts[0]);
  w.object_vector(pts);
  Reader r(w.data());
  EXPECT_EQ(r.object<Point>(), pts[0]);
  EXPECT_EQ(r.object_vector<Point>(), pts);
  EXPECT_TRUE(r.ok());
}

TEST(Serial, EncodeDecodeHelpers) {
  Point p{9.5, -1.25};
  const Bytes data = encode(p);
  EXPECT_EQ(decode<Point>(data), p);
}

// Property: random byte-soup never crashes the reader.
class SerialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerialFuzz, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  Bytes junk(rng.index(200));
  for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
  Reader r(junk);
  (void)r.varint();
  (void)r.str();
  (void)r.f64_vector();
  (void)r.u32();
  (void)r.bytes();
  // No crash and deterministic poisoning behaviour is all we require.
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Property: round-trip of random payload batches is exact.
class SerialRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerialRoundTrip, RandomPayloadRoundTrips) {
  Rng rng(GetParam());
  Writer w;
  std::vector<std::uint64_t> ints;
  std::vector<double> doubles;
  const std::size_t count = 1 + rng.index(50);
  for (std::size_t i = 0; i < count; ++i) {
    ints.push_back(rng.next_u64());
    doubles.push_back(rng.normal(0, 1e10));
  }
  w.u64_vector(ints);
  w.f64_vector(doubles);
  Reader r(w.data());
  EXPECT_EQ(r.u64_vector(), ints);
  EXPECT_EQ(r.f64_vector(), doubles);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialRoundTrip,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

}  // namespace
}  // namespace jacepp::serial
