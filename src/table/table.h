// Match-action table abstractions shared by both switch architectures.
//
// Every table is backed by a mem::LogicalTable in the disaggregated pool, so
// memory accounting (blocks used, access cycles) is uniform whether the
// table belongs to a PISA stage or an IPSA TSP. Rows hold
// [key (+mask for ternary) | action_id | action_args]; a software index
// (hash map / trie / priority list) accelerates the behavioral-model lookup
// exactly like bmv2 does, while reads are still charged against the pool
// for the throughput model.
//
// MatchTable owns the write path every match kind shares: entry checks, row
// allocation, batching and commits (the layer's only Synchronize call). A
// kind keeps its writer-side index and lookup view: InsertOp/EraseOp, a
// Publish() that swaps a new view in (through Published<View> for lpm,
// selector and ternary), and a Changed() call after each mutation.
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
#include "table/rcu.h"
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
  uint32_t row = 0;            // pool row of a hit
  uint32_t block_row = 0;      // its grid row of blocks (read accounting)
};

// Decoded action bits cached beside a software-index row, so hits are served
// without re-reading and re-unpacking the pool row per packet. Refreshed on
// every row write; the pool row stays the ground truth. `block_row` is the
// row's grid row of blocks, which a hit charges its reads to.
struct CachedAction {
  uint32_t action_id = 0;
  uint32_t block_row = 0;
  mem::BitString action_data;
};

class MatchTable;

// Worker-local lookup counters. A packet worker counts each lookup here
// rather than on the table's shared atomics, which every worker would
// otherwise write on every packet, and Flush()es once at the end of its
// call or drain share. Totals stay exact; only the moment they become
// visible to hits()/misses()/Block::reads() moves.
class LookupTally {
 public:
  void Count(const MatchTable& table, const LookupResult& r);
  // Adds every pending count to the tables' shared counters and empties the
  // tally. Must run before any counted table can be destroyed.
  void Flush();

 private:
  // One table's lookups whose hits all read one grid row of its blocks.
  struct Cell {
    const MatchTable* table;
    uint32_t block_row;
    uint64_t hits;
    uint64_t misses;
  };
  std::vector<Cell> cells_;  // a handful per pipeline: a linear scan wins
};

// Per-worker reusable lookup state: the key being built, the result being
// filled and the counts not yet merged. Holding these across packets is
// what makes the steady-state match-action path allocation-free.
struct LookupScratch {
  mem::BitString key;
  LookupResult result;
  // The words a compiled key is assembled in before it is stored into `key`.
  std::vector<uint64_t> key_words;
  LookupTally tally;
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

  // Lookup statistics (read by the controller for visibility). Packet
  // workers count into a LookupTally and merge it through AddCounts.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  // Charges `hits` hits, all reading grid row `block_row` of the pool blocks
  // (one read per grid column each), and `misses` misses.
  void AddCounts(uint32_t block_row, uint64_t hits, uint64_t misses) const;

  // Each entry op first passes CheckEntry: a malformed entry fails with
  // kInvalidArgument/kOutOfRange and mutates nothing.
  // Upsert: a duplicate identity (key / prefix / masked key) updates the
  // existing entry in place, the historical behavior every caller relies on.
  Status Insert(const Entry& entry);
  // Strict add: a duplicate identity fails with kAlreadyExists and mutates
  // nothing. The streamed bulk-insert RPC uses this so a duplicate key
  // mid-window surfaces as a per-entry status instead of a silent upsert.
  Status InsertUnique(const Entry& entry);
  Status Erase(const Entry& entry);

  // Batched publication: between BeginBatch and EndBatch, ops update the
  // writer-side index and EndBatch publishes once, with one RCU grace
  // period. Lookups on lpm, selector and ternary tables keep the pre-batch
  // view until then, so the batch lands atomically; exact-table ops are
  // visible as each lands and only their grace period waits. Calls never
  // nest; EndBatch without a pending batch is a no-op.
  void BeginBatch() { in_batch_ = true; }
  void EndBatch() {
    in_batch_ = false;
    Commit();
  }

  // Fills `out` in place, reusing its BitString capacity — zero allocations
  // in steady state. The hot-path entry point; it counts nothing, so the
  // caller charges the result (a LookupTally, or AddCounts).
  virtual void LookupInto(const mem::BitString& key, LookupResult& out)
      const = 0;
  // A one-off lookup, charged straight to the counters.
  LookupResult Lookup(const mem::BitString& key) const {
    LookupResult out;
    LookupInto(key, out);
    if (out.hit) {
      AddCounts(out.block_row, 1, 0);
    } else {
      AddCounts(0, 0, 1);
    }
    return out;
  }

  // Re-decodes every cached action from the pool rows and publishes the
  // result like any other change. Called after writes that bypass
  // Insert/Erase (e.g. in-situ template updates re-binding storage) so the
  // software index never serves stale bits.
  virtual void RefreshCache() = 0;

  // Tears down pool storage; the table is unusable afterwards.
  void FreeStorage() { storage_.Free(*pool_); }

  Status ConnectTo(mem::Crossbar& xbar, uint32_t proc) const {
    return storage_.ConnectTo(xbar, proc, *pool_);
  }

  // Total rows the runtime API can still fill.
  uint32_t FreeRows() const { return spec_.size - entry_count(); }

 protected:
  MatchTable(TableSpec spec, mem::Pool& pool, mem::LogicalTable storage)
      : spec_(std::move(spec)), pool_(&pool), storage_(std::move(storage)) {}

  // The kind's index mutations, run only on entries CheckEntry accepted.
  virtual Status InsertOp(const Entry& entry, bool upsert) = 0;
  virtual Status EraseOp(const Entry& entry) = 0;
  // Swaps in a view built from the writer-side index; Commit then runs the
  // grace period. Exact chains are linked in place, so exact keeps the no-op.
  virtual void Publish() {}

  // After a mutation that needs a new view or retired something: commits
  // at once unless a batch is open.
  void Changed() {
    dirty_ = true;
    if (!in_batch_) Commit();
  }

  // Claims the next free row (LIFO: freed rows first, then fresh rows from
  // row 0 up), writes `entry` into it (and its mask plane for ternary) and
  // counts the entry. Fails with kResourceExhausted when the table is full.
  Result<uint32_t> AddRow(const Entry& entry);
  // Invalidates `row`, returns it to the free list and uncounts the entry.
  Status ReleaseRow(uint32_t row);

  // "<kind> table '<name>'", the prefix of every error this layer returns.
  std::string Describe() const;

  // Fills a miss result. Misses charge the bus cycles of the (parallel)
  // search but no pool row fetch, matching the original Lookup paths.
  void MissInto(LookupResult& r) const {
    r.hit = false;
    r.action_id = spec_.default_action_id;
    r.action_data = spec_.default_action_data;  // capacity-reusing copy
    r.access_cycles = storage_.AccessCycles(kBusWidthBits);
  }

  // Fills a hit result from the decoded cache. Counting the hit charges
  // the pool reads of `row` (one per grid column, exactly what ReadRow
  // counts), as if the row had been fetched.
  void HitInto(uint32_t row, const CachedAction& a, LookupResult& r) const {
    r.row = row;
    r.block_row = a.block_row;
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

 private:
  // Key width (exact, lpm, ternary), mask width (ternary), prefix length
  // (lpm) and bucket index (selector) against the spec.
  Status CheckEntry(const Entry& entry) const;
  // Publish() and Synchronize, if anything changed since the last commit.
  void Commit();

  // Writer-only state.
  bool in_batch_ = false;
  bool dirty_ = false;
  std::vector<uint32_t> free_rows_;  // released rows, reused LIFO
  uint32_t fresh_rows_ = 0;          // rows [0, fresh_rows_) were handed out
};

// One RCU-published lookup view. Readers Load() it under an rcu::Domain pin;
// the writer Store()s a replacement (release store, old view retired, freed
// after MatchTable::Commit's grace period). The last view dies with it.
template <typename View>
class Published {
 public:
  explicit Published(std::unique_ptr<View> initial = std::make_unique<View>())
      : view_(initial.release()) {}
  ~Published() { delete view_.load(std::memory_order_relaxed); }
  Published(const Published&) = delete;
  Published& operator=(const Published&) = delete;

  const View* Load() const { return view_.load(std::memory_order_acquire); }
  // The writer's own read of the live view; only the writer replaces it.
  const View& Current() const { return *view_.load(std::memory_order_relaxed); }

  void Store(std::unique_ptr<View> next) {
    const View* old = view_.load(std::memory_order_relaxed);
    view_.store(next.release(), std::memory_order_release);
    rcu::Domain::Global().Retire(const_cast<View*>(old));
  }

 private:
  std::atomic<const View*> view_;
};

inline void LookupTally::Count(const MatchTable& table,
                               const LookupResult& r) {
  const uint32_t block_row = r.hit ? r.block_row : 0;
  for (Cell& c : cells_) {
    if (c.table == &table && c.block_row == block_row) {
      ++(r.hit ? c.hits : c.misses);
      return;
    }
  }
  cells_.push_back(Cell{&table, block_row, r.hit ? 1u : 0u, r.hit ? 0u : 1u});
}

// Factory: allocates pool storage and builds the right subclass.
Result<std::unique_ptr<MatchTable>> CreateTable(
    const TableSpec& spec, mem::Pool& pool, uint32_t table_id,
    std::optional<uint32_t> cluster = std::nullopt);

}  // namespace ipsa::table
