// Exact-match table: an RCU-published chained hash index over pool rows.
//
// The software index is one chained hash table (hardware would use
// cuckoo/d-left hashing over the identical SRAM rows). The bucket array is
// pre-sized from the table spec and never resizes, so an insert is
// O(chain) with no rehash ever — million-entry bulk population stays flat.
// Chains follow the RCU discipline: nodes are immutable once published, a
// mutation copies the affected chain prefix and swaps the bucket head
// atomically, and unlinked nodes are retired to the global rcu::Domain.
// Every op is therefore visible to lookups as soon as it lands, batch or
// not; a batch only defers the grace period (MatchTable::Changed). A
// new-key insert pushes a node onto the head, retires nothing and skips
// the grace period. Lookups pin an epoch, walk one chain with acquire
// loads, and never take a lock or observe a half-updated entry.
#pragma once

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "table/table.h"
#include "util/hash.h"

namespace ipsa::table {

class ExactTable : public MatchTable {
 public:
  ExactTable(TableSpec spec, mem::Pool& pool, mem::LogicalTable storage);
  ~ExactTable() override;

  void LookupInto(const mem::BitString& key, LookupResult& out) const override;
  void RefreshCache() override;

 protected:
  Status InsertOp(const Entry& entry, bool upsert) override;
  Status EraseOp(const Entry& entry) override;

 private:
  // View over the key bytes; the index is probed transparently so the
  // per-packet Lookup never materialises a std::string.
  static std::string_view KeyOf(const mem::BitString& key) {
    return std::string_view(reinterpret_cast<const char*>(key.bytes().data()),
                            key.byte_size());
  }

  // One published chain node. Immutable after its bucket head (or a
  // predecessor's next) release-stores a pointer to it; `next` is atomic
  // only so concurrent readers may traverse while a successor chain is
  // being republished.
  struct Node {
    std::atomic<Node*> next{nullptr};
    uint32_t row = 0;
    CachedAction action;
    std::string key;
  };

  std::atomic<Node*>& BucketOf(std::string_view key) {
    return buckets_[util::StringHash{}(key) & bucket_mask_];
  }
  // The chain node holding `key` in `bucket`, or null.
  static Node* Find(const std::atomic<Node*>& bucket, std::string_view key);

  // Republishes `bucket` with `remove` unlinked and (optionally) `add` at
  // the head: copies the chain prefix up to `remove` (the whole chain when
  // null), re-decoding each copy's action when `redecode`, links the copy
  // to its suffix, swaps the head, retires the replaced nodes.
  void RepublishBucket(std::atomic<Node*>& bucket, const Node* remove,
                       Node* add, bool redecode = false);

  std::vector<std::atomic<Node*>> buckets_;
  size_t bucket_mask_ = 0;
};

}  // namespace ipsa::table
