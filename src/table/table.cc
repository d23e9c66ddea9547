#include "table/table.h"

#include <algorithm>

#include "table/exact_table.h"
#include "table/lpm_table.h"
#include "table/selector_table.h"
#include "table/ternary_table.h"

namespace ipsa::table {

std::string_view MatchKindName(MatchKind kind) {
  switch (kind) {
    case MatchKind::kExact:
      return "exact";
    case MatchKind::kLpm:
      return "lpm";
    case MatchKind::kTernary:
      return "ternary";
    case MatchKind::kSelector:
      return "selector";
  }
  return "?";
}

Result<MatchKind> MatchKindFromName(std::string_view name) {
  if (name == "exact") return MatchKind::kExact;
  if (name == "lpm") return MatchKind::kLpm;
  if (name == "ternary") return MatchKind::kTernary;
  if (name == "selector" || name == "hash") return MatchKind::kSelector;
  return InvalidArgument("unknown match kind '" + std::string(name) + "'");
}

// Common row layout: key | aux(8, LPM prefix length) | action_id(16) | args.
uint32_t MatchTable::RowWidthBits() const {
  return spec_.key_width_bits + 8 + 16 + spec_.action_data_width_bits;
}

mem::BitString MatchTable::PackRow(const Entry& e) const {
  mem::BitString row(RowWidthBits());
  row.SetBitsFrom(0, e.key, 0,
                  std::min<size_t>(spec_.key_width_bits, e.key.bit_width()));
  row.SetBits(spec_.key_width_bits, 8, e.prefix_len);
  row.SetBits(spec_.key_width_bits + 8, 16, e.action_id);
  row.SetBitsFrom(spec_.key_width_bits + 8 + 16, e.action_data, 0,
                  std::min<size_t>(spec_.action_data_width_bits,
                                   e.action_data.bit_width()));
  return row;
}

std::string MatchTable::Describe() const {
  return std::string(MatchKindName(spec_.match_kind)) + " table '" +
         spec_.name + "'";
}

Status MatchTable::CheckEntry(const Entry& entry) const {
  const uint32_t width = spec_.key_width_bits;
  switch (spec_.match_kind) {
    case MatchKind::kSelector:
      // entry.key holds the bucket index.
      if (entry.key.ToUint64() >= spec_.size) {
        return OutOfRange(Describe() + ": bucket index beyond table size");
      }
      return OkStatus();
    case MatchKind::kTernary:
      if (entry.key.bit_width() != width || entry.mask.bit_width() != width) {
        return InvalidArgument(Describe() + ": key/mask width mismatch");
      }
      return OkStatus();
    case MatchKind::kExact:
    case MatchKind::kLpm:
      break;
  }
  if (entry.key.bit_width() != width) {
    return InvalidArgument(Describe() + ": key width mismatch");
  }
  if (spec_.match_kind == MatchKind::kLpm && entry.prefix_len > width) {
    return InvalidArgument(Describe() + ": prefix length exceeds key width");
  }
  return OkStatus();
}

Status MatchTable::Insert(const Entry& entry) {
  IPSA_RETURN_IF_ERROR(CheckEntry(entry));
  return InsertOp(entry, true);
}

Status MatchTable::InsertUnique(const Entry& entry) {
  IPSA_RETURN_IF_ERROR(CheckEntry(entry));
  return InsertOp(entry, false);
}

Status MatchTable::Erase(const Entry& entry) {
  IPSA_RETURN_IF_ERROR(CheckEntry(entry));
  return EraseOp(entry);
}

void MatchTable::Commit() {
  if (!dirty_) return;
  dirty_ = false;
  Publish();
  rcu::Domain::Global().Synchronize();
}

Result<uint32_t> MatchTable::AddRow(const Entry& entry) {
  const bool reuse = !free_rows_.empty();
  if (!reuse && fresh_rows_ == spec_.size) {
    return ResourceExhausted(Describe() + " is full");
  }
  const uint32_t row = reuse ? free_rows_.back() : fresh_rows_;
  IPSA_RETURN_IF_ERROR(storage_.WriteRow(*pool_, row, PackRow(entry)));
  if (spec_.match_kind == MatchKind::kTernary) {
    // The mask plane covers the key bits only; aux/action bits are
    // don't-care.
    mem::BitString full_mask(RowWidthBits());
    full_mask.SetBitsFrom(0, entry.mask, 0, spec_.key_width_bits);
    IPSA_RETURN_IF_ERROR(storage_.WriteMask(*pool_, row, full_mask));
  }
  if (reuse) {
    free_rows_.pop_back();
  } else {
    ++fresh_rows_;
  }
  entry_count_.fetch_add(1, std::memory_order_relaxed);
  return row;
}

Status MatchTable::ReleaseRow(uint32_t row) {
  IPSA_RETURN_IF_ERROR(storage_.InvalidateRow(*pool_, row));
  free_rows_.push_back(row);
  entry_count_.fetch_sub(1, std::memory_order_relaxed);
  return OkStatus();
}

void MatchTable::AddCounts(uint32_t block_row, uint64_t hits,
                           uint64_t misses) const {
  if (hits != 0) {
    hits_.fetch_add(hits, std::memory_order_relaxed);
    storage_.ChargeReads(*pool_, block_row, hits);
  }
  if (misses != 0) misses_.fetch_add(misses, std::memory_order_relaxed);
}

void LookupTally::Flush() {
  for (const Cell& c : cells_) {
    c.table->AddCounts(c.block_row, c.hits, c.misses);
  }
  cells_.clear();
}

CachedAction MatchTable::DecodeRow(uint32_t row) const {
  CachedAction a;
  a.block_row = storage_.BlockRowOf(row);
  // One row buffer per writer thread, its capacity reused: decoding a
  // written row allocates nothing.
  thread_local mem::BitString bits;
  if (!storage_.PeekRowInto(*pool_, row, bits).ok()) return a;
  a.action_id =
      static_cast<uint32_t>(bits.GetBits(spec_.key_width_bits + 8, 16));
  bits.SliceInto(spec_.key_width_bits + 8 + 16, spec_.action_data_width_bits,
                 a.action_data);
  return a;
}

Result<std::unique_ptr<MatchTable>> CreateTable(
    const TableSpec& spec, mem::Pool& pool, uint32_t table_id,
    std::optional<uint32_t> cluster) {
  if (spec.key_width_bits == 0) {
    return InvalidArgument("table '" + spec.name + "': zero key width");
  }
  if (spec.size == 0) {
    return InvalidArgument("table '" + spec.name + "': zero size");
  }
  mem::BlockKind block_kind = spec.match_kind == MatchKind::kTernary
                                  ? mem::BlockKind::kTcam
                                  : mem::BlockKind::kSram;
  uint32_t row_width =
      spec.key_width_bits + 8 + 16 + spec.action_data_width_bits;
  auto storage = mem::LogicalTable::Create(pool, block_kind, table_id,
                                           row_width, spec.size, cluster);
  if (!storage.ok()) return storage.status();

  switch (spec.match_kind) {
    case MatchKind::kExact:
      return std::unique_ptr<MatchTable>(
          new ExactTable(spec, pool, std::move(storage).value()));
    case MatchKind::kLpm:
      return std::unique_ptr<MatchTable>(
          new LpmTable(spec, pool, std::move(storage).value()));
    case MatchKind::kTernary:
      return std::unique_ptr<MatchTable>(
          new TernaryTable(spec, pool, std::move(storage).value()));
    case MatchKind::kSelector:
      return std::unique_ptr<MatchTable>(
          new SelectorTable(spec, pool, std::move(storage).value()));
  }
  return InvalidArgument("bad match kind");
}

}  // namespace ipsa::table
