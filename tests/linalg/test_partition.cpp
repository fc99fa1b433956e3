#include "linalg/partition.hpp"

#include <gtest/gtest.h>

namespace jacepp::linalg {
namespace {

TEST(Partition, EvenSplitNoOverlap) {
  const auto blocks = partition_rows(100, 4, 5, 0);
  ASSERT_EQ(blocks.size(), 4u);
  std::size_t cursor = 0;
  for (const auto& blk : blocks) {
    EXPECT_EQ(blk.owned_lo, cursor);
    EXPECT_EQ(blk.owned_size(), 25u);
    EXPECT_EQ(blk.ext_lo, blk.owned_lo);
    EXPECT_EQ(blk.ext_hi, blk.owned_hi);
    cursor = blk.owned_hi;
  }
  EXPECT_EQ(cursor, 100u);
}

TEST(Partition, ImpossibleSplitsGiveNoBlocks) {
  // The sizes may come from a peer's config: a split that cannot be made
  // is an empty result, never an abort.
  EXPECT_TRUE(partition_rows(100, 0, 5, 0).empty());   // no parts
  EXPECT_TRUE(partition_rows(100, 4, 0, 0).empty());   // no granularity
  EXPECT_TRUE(partition_rows(100, 4, 3, 0).empty());   // 100 % 3 != 0
  EXPECT_TRUE(partition_rows(100, 21, 5, 0).empty());  // 20 lines, 21 parts
  EXPECT_EQ(partition_rows(100, 20, 5, 0).size(), 20u);
}

TEST(Partition, UnevenSplitDistributesExtraLines) {
  // 10 lines of granularity 3 over 4 parts: 3,3,2,2 lines.
  const auto blocks = partition_rows(30, 4, 3, 0);
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0].owned_size(), 9u);
  EXPECT_EQ(blocks[1].owned_size(), 9u);
  EXPECT_EQ(blocks[2].owned_size(), 6u);
  EXPECT_EQ(blocks[3].owned_size(), 6u);
  // Sizes are all multiples of the granularity.
  for (const auto& blk : blocks) EXPECT_EQ(blk.owned_size() % 3, 0u);
}

TEST(Partition, OverlapExtendsAndClamps) {
  const auto blocks = partition_rows(40, 4, 2, 4);
  // First block: no room below, clamped at 0.
  EXPECT_EQ(blocks[0].ext_lo, 0u);
  EXPECT_EQ(blocks[0].ext_hi, blocks[0].owned_hi + 4);
  // Middle block: extended both ways.
  EXPECT_EQ(blocks[1].ext_lo, blocks[1].owned_lo - 4);
  EXPECT_EQ(blocks[1].ext_hi, blocks[1].owned_hi + 4);
  // Last block: clamped at the top.
  EXPECT_EQ(blocks[3].ext_hi, 40u);
  EXPECT_EQ(blocks[3].owned_offset(), 4u);
}

TEST(Partition, SinglePartOwnsEverything) {
  const auto blocks = partition_rows(60, 1, 6, 10);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].owned_lo, 0u);
  EXPECT_EQ(blocks[0].owned_hi, 60u);
  EXPECT_EQ(blocks[0].ext_lo, 0u);
  EXPECT_EQ(blocks[0].ext_hi, 60u);  // clamp swallows the whole overlap
}

TEST(Partition, OwnerOfRow) {
  const auto blocks = partition_rows(30, 3, 1, 2);
  EXPECT_EQ(owner_of_row(blocks, 0), 0u);
  EXPECT_EQ(owner_of_row(blocks, 9), 0u);
  EXPECT_EQ(owner_of_row(blocks, 10), 1u);
  EXPECT_EQ(owner_of_row(blocks, 29), 2u);
}

// Property sweep: for any (lines, parts, overlap) combination, owned ranges
// tile [0, total) exactly, and extensions stay in bounds.
struct PartitionCase {
  std::size_t lines;
  std::size_t parts;
  std::size_t granularity;
  std::size_t overlap;
};

class PartitionProperty : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionProperty, TilesExactlyAndStaysInBounds) {
  const auto& param = GetParam();
  const std::size_t total = param.lines * param.granularity;
  const auto blocks =
      partition_rows(total, param.parts, param.granularity, param.overlap);
  ASSERT_EQ(blocks.size(), param.parts);
  std::size_t cursor = 0;
  for (const auto& blk : blocks) {
    EXPECT_EQ(blk.owned_lo, cursor);
    EXPECT_GT(blk.owned_size(), 0u);
    EXPECT_EQ(blk.owned_size() % param.granularity, 0u);
    EXPECT_LE(blk.ext_lo, blk.owned_lo);
    EXPECT_GE(blk.ext_hi, blk.owned_hi);
    EXPECT_LE(blk.ext_hi, total);
    EXPECT_LE(blk.owned_lo - blk.ext_lo, param.overlap);
    EXPECT_LE(blk.ext_hi - blk.owned_hi, param.overlap);
    cursor = blk.owned_hi;
  }
  EXPECT_EQ(cursor, total);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionProperty,
    ::testing::Values(PartitionCase{8, 1, 4, 0}, PartitionCase{8, 8, 4, 2},
                      PartitionCase{10, 3, 5, 7}, PartitionCase{100, 7, 2, 3},
                      PartitionCase{13, 5, 11, 20}, PartitionCase{80, 80, 1, 1},
                      PartitionCase{64, 16, 24, 24}));

}  // namespace
}  // namespace jacepp::linalg
