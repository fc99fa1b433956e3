// Block-row partitioning for the multisplitting method.
//
// The paper's decomposition: the n²-unknown Poisson system is split into
// contiguous row blocks, one per task; each block size is a multiple of n (one
// discretized grid line), and blocks may be extended by `overlap` rows on each
// side ("overlapping components", paper §6).
#pragma once

#include <cstddef>
#include <vector>

namespace jacepp::linalg {

/// A contiguous block of rows owned by one task, plus its overlap extension.
struct RowBlock {
  std::size_t owned_lo = 0;   ///< first owned row (inclusive)
  std::size_t owned_hi = 0;   ///< last owned row (exclusive)
  std::size_t ext_lo = 0;     ///< first row including overlap
  std::size_t ext_hi = 0;     ///< last row including overlap (exclusive)

  [[nodiscard]] std::size_t owned_size() const { return owned_hi - owned_lo; }
  [[nodiscard]] std::size_t ext_size() const { return ext_hi - ext_lo; }
  /// Offset of the owned range inside the extended range.
  [[nodiscard]] std::size_t owned_offset() const { return owned_lo - ext_lo; }
};

/// Partition `total_rows` rows into `parts` contiguous blocks whose sizes are
/// multiples of `granularity` (except that rounding is balanced across blocks;
/// total_rows must itself be a multiple of granularity). Each block is then
/// extended by `overlap` rows on each side, clamped to [0, total_rows).
///
/// Returns no blocks when the rows cannot be split so: parts == 0,
/// granularity == 0, total_rows % granularity != 0, or fewer lines
/// (total_rows / granularity) than parts. The sizes may come from a peer's
/// config, so this is a result, not an abort.
std::vector<RowBlock> partition_rows(std::size_t total_rows, std::size_t parts,
                                     std::size_t granularity, std::size_t overlap);

/// Which block owns a given row. Blocks must come from partition_rows.
std::size_t owner_of_row(const std::vector<RowBlock>& blocks, std::size_t row);

}  // namespace jacepp::linalg
