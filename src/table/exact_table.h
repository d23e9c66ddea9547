// Exact-match table: an RCU-published chained hash index over pool rows.
//
// Keys are hashed and compared as 64-bit words (util::Mix64 over the
// key's words), so a lookup reads the key in place: no copy, no byte loop.
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
  // Keys compare by byte width and words: the bits above bit_width() are
  // zero, so equal byte widths and equal words mean equal key bytes.
  static bool SameKey(const mem::BitString& a, const mem::BitString& b) {
    if (a.byte_size() != b.byte_size()) return false;
    const uint64_t* wa = a.words();
    const uint64_t* wb = b.words();
    for (size_t i = 0; i < a.WordCount(); ++i) {
      if (wa[i] != wb[i]) return false;
    }
    return true;
  }
  // Folds the key's words through util::Mix64, seeded with its byte width.
  static uint64_t HashKey(const mem::BitString& key) {
    uint64_t h = key.byte_size();
    const uint64_t* w = key.words();
    for (size_t i = 0; i < key.WordCount(); ++i) h = util::Mix64(h ^ w[i]);
    return h;
  }

  // One published chain node. Immutable after its bucket head (or a
  // predecessor's next) release-stores a pointer to it; `next` is atomic
  // only so concurrent readers may traverse while a successor chain is
  // being republished.
  struct Node {
    std::atomic<Node*> next{nullptr};
    uint32_t row = 0;
    CachedAction action;
    mem::BitString key;
  };

  std::atomic<Node*>& BucketOf(const mem::BitString& key) {
    return buckets_[HashKey(key) & bucket_mask_];
  }
  // The chain node holding `key` in `bucket`, or null.
  static Node* Find(const std::atomic<Node*>& bucket,
                    const mem::BitString& key);

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
