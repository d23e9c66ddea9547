// Hash/selector table — the mechanism behind the paper's ECMP use case
// (Fig. 5a: `key = { meta.nexthop: hash; ipv4.dst_addr: hash; }`).
//
// All key fields are hash inputs: lookup CRC-hashes the key and indexes one
// of the populated buckets, so packets of one flow always pick the same
// bucket while distinct flows spread across them. The controller programs
// buckets with `Entry.key` = bucket index.
//
// Concurrency: the writer keeps the decoded members (bucket row + action)
// in bucket order, decoding a member once when it is written. Publish()
// copies them into an immutable View (selector groups are small — a full
// snapshot per publish is cheap) and stores it through Published<View>;
// lookups read it under an RCU epoch pin, so a member add/remove swaps the
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
    std::vector<Member> members;  // ascending bucket order
  };

  // The member at bucket `row`, or where it would be inserted.
  std::vector<Member>::iterator LowerBound(uint32_t row);

  // Writer-side members, ascending bucket order; lookups use the published
  // copy.
  std::vector<Member> members_;
  Published<View> view_;
};

}  // namespace ipsa::table
