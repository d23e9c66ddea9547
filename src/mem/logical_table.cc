#include "mem/logical_table.h"

#include <algorithm>

namespace ipsa::mem {

Result<LogicalTable> LogicalTable::Create(Pool& pool, BlockKind kind,
                                          uint32_t table_id,
                                          uint32_t width_bits, uint32_t depth,
                                          std::optional<uint32_t> cluster) {
  if (width_bits == 0 || depth == 0) {
    return InvalidArgument("logical table must have nonzero width and depth");
  }
  LogicalTable t;
  t.table_id_ = table_id;
  t.kind_ = kind;
  t.width_ = width_bits;
  t.depth_ = depth;
  t.block_width_ = pool.WidthOf(kind);
  t.block_depth_ = pool.DepthOf(kind);
  t.cols_ = (width_bits + t.block_width_ - 1) / t.block_width_;
  t.block_rows_ = (depth + t.block_depth_ - 1) / t.block_depth_;
  auto blocks = pool.AllocateBlocks(kind, t.cols_ * t.block_rows_, table_id,
                                    cluster);
  if (!blocks.ok()) return blocks.status();
  t.block_ids_ = std::move(blocks).value();
  return t;
}

Status LogicalTable::WriteRow(Pool& pool, uint32_t row,
                              const BitString& value) {
  if (row >= depth_) return OutOfRange("logical row out of range");
  if (value.bit_width() > width_) {
    return InvalidArgument("row value wider than logical table");
  }
  RowLoc loc = Locate(row);
  if (cols_ == 1) {
    // The whole row is one block row; the block zero-extends it.
    return pool.block(BlockAt(loc.block_row, 0)).WriteRow(loc.local_row, value);
  }
  for (uint32_t c = 0; c < cols_; ++c) {
    uint32_t lo = c * block_width_;
    uint32_t span = std::min(block_width_, width_ - lo);
    BitString piece = value.bit_width() > lo ? value.Slice(lo, span)
                                             : BitString(span);
    IPSA_RETURN_IF_ERROR(
        pool.block(BlockAt(loc.block_row, c)).WriteRow(loc.local_row, piece));
  }
  return OkStatus();
}

Status LogicalTable::WriteMask(Pool& pool, uint32_t row,
                               const BitString& mask) {
  if (kind_ != BlockKind::kTcam) {
    return FailedPrecondition("mask write on SRAM logical table");
  }
  if (row >= depth_) return OutOfRange("logical row out of range");
  RowLoc loc = Locate(row);
  for (uint32_t c = 0; c < cols_; ++c) {
    uint32_t lo = c * block_width_;
    uint32_t span = std::min(block_width_, width_ - lo);
    BitString piece =
        mask.bit_width() > lo ? mask.Slice(lo, span) : BitString(span);
    IPSA_RETURN_IF_ERROR(
        pool.block(BlockAt(loc.block_row, c)).WriteMask(loc.local_row, piece));
  }
  return OkStatus();
}

Result<BitString> LogicalTable::ReadRow(const Pool& pool, uint32_t row) const {
  if (row >= depth_) return OutOfRange("logical row out of range");
  ChargeReads(pool, BlockRowOf(row), 1);
  return PeekRow(pool, row);
}

void LogicalTable::ChargeReads(const Pool& pool, uint32_t block_row,
                               uint64_t n) const {
  for (uint32_t c = 0; c < cols_; ++c) {
    pool.block(BlockAt(block_row, c)).CountReads(n);
  }
}

Result<BitString> LogicalTable::PeekRow(const Pool& pool, uint32_t row) const {
  BitString out;
  IPSA_RETURN_IF_ERROR(PeekRowInto(pool, row, out));
  return out;
}

Status LogicalTable::PeekRowInto(const Pool& pool, uint32_t row,
                                 BitString& out) const {
  if (row >= depth_) return OutOfRange("logical row out of range");
  RowLoc loc = Locate(row);
  out.Resize(width_);
  for (uint32_t c = 0; c < cols_; ++c) {
    const BitString& piece =
        pool.block(BlockAt(loc.block_row, c)).PeekRow(loc.local_row);
    uint32_t lo = c * block_width_;
    uint32_t span = std::min(block_width_, width_ - lo);
    out.SetBitsFrom(lo, piece, 0, span);
  }
  return OkStatus();
}

BitString LogicalTable::ReadMask(const Pool& pool, uint32_t row) const {
  BitString out(width_);
  RowLoc loc = Locate(row);
  for (uint32_t c = 0; c < cols_; ++c) {
    const BitString& piece =
        pool.block(BlockAt(loc.block_row, c)).mask(loc.local_row);
    uint32_t lo = c * block_width_;
    uint32_t span = std::min(block_width_, width_ - lo);
    out.SetBitsFrom(lo, piece, 0, span);
  }
  return out;
}

bool LogicalTable::RowValid(const Pool& pool, uint32_t row) const {
  if (row >= depth_) return false;
  RowLoc loc = Locate(row);
  // The row is valid iff its first grid column is valid; writes keep all
  // columns in lockstep.
  return pool.block(BlockAt(loc.block_row, 0)).row_valid(loc.local_row);
}

Status LogicalTable::InvalidateRow(Pool& pool, uint32_t row) {
  if (row >= depth_) return OutOfRange("logical row out of range");
  RowLoc loc = Locate(row);
  for (uint32_t c = 0; c < cols_; ++c) {
    pool.block(BlockAt(loc.block_row, c)).SetRowValid(loc.local_row, false);
  }
  return OkStatus();
}

Status LogicalTable::ConnectTo(Crossbar& xbar, uint32_t proc,
                               const Pool& pool) const {
  for (uint32_t id : block_ids_) {
    IPSA_RETURN_IF_ERROR(xbar.Connect(proc, id, pool));
  }
  return OkStatus();
}

}  // namespace ipsa::mem
