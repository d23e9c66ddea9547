// Hash/selector table — the mechanism behind the paper's ECMP use case
// (Fig. 5a: `key = { meta.nexthop: hash; ipv4.dst_addr: hash; }`).
//
// All key fields are hash inputs: lookup CRC-hashes the key and indexes one
// of the populated buckets, so packets of one flow always pick the same
// bucket while distinct flows spread across them. The controller programs
// buckets with `Entry.key` = bucket index.
//
// Concurrency: each member (bucket row + decoded action) is immutable once
// written and lives on its own; the writer keeps pointers to them in bucket
// order. Publish() copies only those pointers into an immutable View and
// stores it through Published<View>, so a write costs the same whether the
// group holds 4 members or 4096; a member an upsert or erase replaced is
// retired through RCU once the view that dropped it is published. Lookups
// read the view under an RCU epoch pin, so a member add/remove swaps the
// whole group atomically and a flow never hashes into a half-updated member
// set. Inside a batch, lookups keep the pre-batch group until EndBatch.
#pragma once

#include <vector>

#include "table/table.h"

namespace ipsa::table {

class SelectorTable : public MatchTable {
 public:
  SelectorTable(TableSpec spec, mem::Pool& pool, mem::LogicalTable storage)
      : MatchTable(std::move(spec), pool, std::move(storage)) {}
  ~SelectorTable() override;

  // Hashes `key` over the populated buckets.
  void LookupInto(const mem::BitString& key, LookupResult& out) const override;
  void RefreshCache() override;

  uint32_t BucketCount() const {
    return static_cast<uint32_t>(members_.size());
  }

 protected:
  // entry.key holds the bucket index, which is also the member's row;
  // upserts overwrite the member, strict adds fail on an already-populated
  // bucket.
  Status InsertOp(const Entry& entry, bool upsert) override;
  Status EraseOp(const Entry& entry) override;
  void Publish() override;

 private:
  struct Member {
    uint32_t row = 0;
    CachedAction action;
  };
  struct View {
    std::vector<const Member*> members;  // ascending bucket order
  };

  // The member at bucket `row`, or where it would be inserted.
  std::vector<const Member*>::iterator LowerBound(uint32_t row);

  // Writer-side members, ascending bucket order, owned here; a publish
  // copies these pointers into the view.
  std::vector<const Member*> members_;
  // Members replaced or erased since the last publish, owned here: the live
  // view may still point at them, so they are retired only after it is
  // replaced.
  std::vector<const Member*> dropped_;
  Published<View> view_;
};

}  // namespace ipsa::table
