#include "linalg/partition.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace jacepp::linalg {

std::vector<RowBlock> partition_rows(std::size_t total_rows, std::size_t parts,
                                     std::size_t granularity, std::size_t overlap) {
  if (parts == 0 || granularity == 0 || total_rows % granularity != 0 ||
      total_rows / granularity < parts) {
    return {};
  }
  const std::size_t lines = total_rows / granularity;

  // Distribute `lines` grid lines over `parts` blocks as evenly as possible;
  // the first (lines % parts) blocks get one extra line.
  const std::size_t base = lines / parts;
  const std::size_t extra = lines % parts;

  std::vector<RowBlock> blocks(parts);
  std::size_t cursor = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t block_lines = base + (p < extra ? 1 : 0);
    RowBlock& blk = blocks[p];
    blk.owned_lo = cursor;
    blk.owned_hi = cursor + block_lines * granularity;
    cursor = blk.owned_hi;
    blk.ext_lo = blk.owned_lo >= overlap ? blk.owned_lo - overlap : 0;
    blk.ext_hi = std::min(blk.owned_hi + overlap, total_rows);
  }
  JACEPP_ASSERT(cursor == total_rows);
  return blocks;
}

std::size_t owner_of_row(const std::vector<RowBlock>& blocks, std::size_t row) {
  for (std::size_t p = 0; p < blocks.size(); ++p) {
    if (row >= blocks[p].owned_lo && row < blocks[p].owned_hi) return p;
  }
  JACEPP_CHECK(false, "owner_of_row: row outside all blocks");
  return blocks.size();
}

}  // namespace jacepp::linalg
