// Logical-table virtualization over pool blocks (paper §2.4).
//
// A logical table of W bits x D rows is spread over a grid of
// ceil(D/d) x ceil(W/w) physical blocks, which need not be adjacent in the
// pool. Row r lives in block-row r/d at block-local row r%d; its W bits are
// the concatenation of the grid columns. Operators only ever see the logical
// table; the compiler-provided runtime APIs (src/table/) sit on top of this.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/crossbar.h"
#include "mem/pool.h"
#include "util/status.h"

namespace ipsa::mem {

class LogicalTable {
 public:
  // Allocates the backing blocks from `pool` under owner id `table_id`.
  static Result<LogicalTable> Create(Pool& pool, BlockKind kind,
                                     uint32_t table_id,
                                     uint32_t width_bits, uint32_t depth,
                                     std::optional<uint32_t> cluster =
                                         std::nullopt);

  uint32_t table_id() const { return table_id_; }
  BlockKind kind() const { return kind_; }
  uint32_t width_bits() const { return width_; }
  uint32_t depth() const { return depth_; }
  const std::vector<uint32_t>& block_ids() const { return block_ids_; }

  Status WriteRow(Pool& pool, uint32_t row, const BitString& value);
  Status WriteMask(Pool& pool, uint32_t row, const BitString& mask);
  Result<BitString> ReadRow(const Pool& pool, uint32_t row) const;
  BitString ReadMask(const Pool& pool, uint32_t row) const;
  // Charges the read statistics of `n` row fetches from grid row
  // `block_row` (one read per grid column each, exactly what ReadRow
  // counts) without materializing the bits. Lets a software index answer
  // lookups from its decoded cache while the read counters still see every
  // data-path memory access.
  void ChargeReads(const Pool& pool, uint32_t block_row, uint64_t n) const;
  // The grid row holding logical row `row`.
  uint32_t BlockRowOf(uint32_t row) const { return Locate(row).block_row; }
  // Assembles a row's bits WITHOUT touching the read statistics — for index
  // cache refreshes after control-plane writes, which model index
  // maintenance rather than a data-path access.
  Result<BitString> PeekRow(const Pool& pool, uint32_t row) const;
  // PeekRow into `out`, reusing its capacity.
  Status PeekRowInto(const Pool& pool, uint32_t row, BitString& out) const;
  bool RowValid(const Pool& pool, uint32_t row) const;
  Status InvalidateRow(Pool& pool, uint32_t row);

  // Cycles to fetch one row through a `bus_width_bits`-wide bus, plus one
  // cycle of crossbar traversal. This is the memory-access cost that the
  // paper blames for IPSA's throughput decline (§5 Throughput).
  uint32_t AccessCycles(uint32_t bus_width_bits) const {
    return 1 + (width_ + bus_width_bits - 1) / bus_width_bits;
  }

  // Releases the backing blocks (stage deletion recycles memory, §2.4).
  void Free(Pool& pool) { pool.ReleaseOwner(table_id_); }

  // Routes every backing block to processor `proc` on the crossbar.
  Status ConnectTo(Crossbar& xbar, uint32_t proc, const Pool& pool) const;

 private:
  LogicalTable() = default;

  // Grid coordinates for a logical row.
  struct RowLoc {
    uint32_t block_row;   // which row of the block grid
    uint32_t local_row;   // row within each block of that grid row
  };
  RowLoc Locate(uint32_t row) const {
    uint32_t d = block_depth_;
    return {row / d, row % d};
  }
  uint32_t BlockAt(uint32_t block_row, uint32_t col) const {
    return block_ids_[block_row * cols_ + col];
  }

  uint32_t table_id_ = 0;
  BlockKind kind_ = BlockKind::kSram;
  uint32_t width_ = 0;
  uint32_t depth_ = 0;
  uint32_t cols_ = 0;        // ceil(W/w)
  uint32_t block_rows_ = 0;  // ceil(D/d)
  uint32_t block_width_ = 0;
  uint32_t block_depth_ = 0;
  std::vector<uint32_t> block_ids_;  // row-major grid
};

}  // namespace ipsa::mem
