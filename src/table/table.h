// Match-action table abstractions shared by both switch architectures.
//
// Every table is backed by a mem::LogicalTable in the disaggregated pool, so
// memory accounting (blocks used, access cycles) is uniform whether the
// table belongs to a PISA stage or an IPSA TSP. Rows hold
// [key (+mask for ternary) | action_id | action_args]; a software index
// (hash map / trie / priority list) accelerates the behavioral-model lookup
// exactly like bmv2 does, while reads are still charged against the pool
// for the throughput model.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/crossbar.h"
#include "mem/logical_table.h"
#include "mem/pool.h"
#include "util/status.h"

namespace ipsa::table {

enum class MatchKind { kExact, kLpm, kTernary, kSelector };

std::string_view MatchKindName(MatchKind kind);
Result<MatchKind> MatchKindFromName(std::string_view name);

// Static shape of a table, produced by the compilers.
struct TableSpec {
  std::string name;
  MatchKind match_kind = MatchKind::kExact;
  uint32_t key_width_bits = 32;
  uint32_t action_data_width_bits = 64;
  uint32_t size = 1024;  // max entries (depth)
  // Default action when lookup misses (0 = NoAction by convention).
  uint32_t default_action_id = 0;
  mem::BitString default_action_data;
};

struct LookupResult {
  bool hit = false;
  uint32_t action_id = 0;
  mem::BitString action_data;
  uint32_t access_cycles = 0;  // charged pool/bus cycles for this lookup
};

// Decoded action bits cached beside a software-index row, so hits are served
// without re-reading and re-unpacking the pool row per packet. Refreshed on
// every row write; the pool row stays the ground truth.
struct CachedAction {
  uint32_t action_id = 0;
  mem::BitString action_data;
};

// Per-worker reusable lookup state: the key being built and the result being
// filled. Holding these across packets is what makes the steady-state
// match-action path allocation-free.
struct LookupScratch {
  mem::BitString key;
  LookupResult result;
  // The words a compiled key is assembled in before it is stored into `key`.
  std::vector<uint64_t> key_words;
};

// A populated table entry as seen by the runtime API.
struct Entry {
  mem::BitString key;
  mem::BitString mask;      // ternary only
  uint32_t prefix_len = 0;  // lpm only
  uint32_t priority = 0;    // ternary only (higher wins)
  uint32_t action_id = 0;
  mem::BitString action_data;
};

class MatchTable {
 public:
  virtual ~MatchTable() = default;

  const TableSpec& spec() const { return spec_; }
  const mem::LogicalTable& storage() const { return storage_; }
  uint32_t entry_count() const {
    return entry_count_.load(std::memory_order_relaxed);
  }

  // Lookup statistics (read by the controller for visibility). Atomic so
  // parallel run-to-completion workers can count concurrently.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  void CountLookup(bool hit) const {
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  }

  // Upsert: a duplicate identity (key / prefix / masked key) updates the
  // existing entry in place, the historical behavior every caller relies on.
  Status Insert(const Entry& entry) { return InsertOp(entry, true); }
  // Strict add: a duplicate identity fails with kAlreadyExists and mutates
  // nothing. The streamed bulk-insert RPC uses this so a duplicate key
  // mid-window surfaces as a per-entry status instead of a silent upsert.
  Status InsertUnique(const Entry& entry) { return InsertOp(entry, false); }
  virtual Status Erase(const Entry& entry) = 0;

  // Batched publication: between BeginBatch and EndBatch, mutations update
  // the writer-side index but may defer publishing new lookup views until
  // EndBatch — one atomic swap (and one RCU grace period) amortized over
  // the whole batch instead of per op. Lookups keep serving the last
  // published view meanwhile: a bulk frame becomes visible atomically.
  // Calls never nest; EndBatch without a pending batch is a no-op.
  virtual void BeginBatch() {}
  virtual void EndBatch() {}

  // Fills `out` in place, reusing its BitString capacity — zero allocations
  // in steady state. The hot-path entry point.
  virtual void LookupInto(const mem::BitString& key, LookupResult& out)
      const = 0;
  LookupResult Lookup(const mem::BitString& key) const {
    LookupResult out;
    LookupInto(key, out);
    return out;
  }

  // Re-decodes every cached action from the pool rows. Called after writes
  // that bypass Insert/Erase (e.g. in-situ template updates re-binding
  // storage) so the software index never serves stale bits.
  virtual void RefreshCache() = 0;

  // Tears down pool storage; the table is unusable afterwards.
  void FreeStorage() { storage_.Free(*pool_); }

  Status ConnectTo(mem::Crossbar& xbar, uint32_t proc) const {
    return storage_.ConnectTo(xbar, proc, *pool_);
  }

  // Total rows the runtime API can still fill.
  uint32_t FreeRows() const { return spec_.size - entry_count(); }

 protected:
  virtual Status InsertOp(const Entry& entry, bool upsert) = 0;
  MatchTable(TableSpec spec, mem::Pool& pool, mem::LogicalTable storage)
      : spec_(std::move(spec)), pool_(&pool), storage_(std::move(storage)) {}

  // Fills a miss result. Misses charge the bus cycles of the (parallel)
  // search but no pool row fetch, matching the original Lookup paths.
  void MissInto(LookupResult& r) const {
    r.hit = false;
    r.action_id = spec_.default_action_id;
    r.action_data = spec_.default_action_data;  // capacity-reusing copy
    r.access_cycles = storage_.AccessCycles(kBusWidthBits);
  }

  // Fills a hit result from the decoded cache. The pool read statistics are
  // still charged for `row` (one read per grid column, exactly what
  // ReadRow counted), so the hardware throughput model is unchanged.
  void HitInto(uint32_t row, const CachedAction& a, LookupResult& r) const {
    (void)storage_.ChargeRead(*pool_, row);
    r.hit = true;
    r.action_id = a.action_id;
    r.action_data = a.action_data;  // capacity-reusing copy
    r.access_cycles = storage_.AccessCycles(kBusWidthBits);
  }

  // Decodes (action_id, action_data) from a pool row without touching the
  // read statistics — index maintenance, not a data-path access.
  CachedAction DecodeRow(uint32_t row) const;

  // Row layout: key [| mask] | action_id(16) | action_data.
  uint32_t RowWidthBits() const;
  mem::BitString PackRow(const Entry& e) const;
  Entry UnpackRow(const mem::BitString& row) const;

  // Data-bus width between processors and the pool; §5 notes IPSA throughput
  // suffers when an entry exceeds this width.
  static constexpr uint32_t kBusWidthBits = 256;

  TableSpec spec_;
  mem::Pool* pool_;
  mem::LogicalTable storage_;
  // Relaxed atomic: mutated by the (single) writer, read by stats scrapes
  // and FreeRows checks while churn is in flight.
  std::atomic<uint32_t> entry_count_{0};
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

// Factory: allocates pool storage and builds the right subclass.
Result<std::unique_ptr<MatchTable>> CreateTable(
    const TableSpec& spec, mem::Pool& pool, uint32_t table_id,
    std::optional<uint32_t> cluster = std::nullopt);

}  // namespace ipsa::table
