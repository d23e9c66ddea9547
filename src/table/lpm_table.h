// Longest-prefix-match table over pool-backed rows.
//
// The writer keeps a binary trie keyed MSB-first over the prefix bits as the
// canonical store, exactly as before. What lookups consume is a published,
// immutable Root: the key's top R bits index a slot array whose entries
// carry (a) the best "short" prefix (length <= R) covering that slot,
// leaf-pushed by controlled prefix expansion, and (b) a shared_ptr to a
// per-slot shard — a stride-4 multibit trie over the remaining key bits for
// the prefixes longer than R that start with those top bits. R grows with
// the table size, so a million-entry table fans out across ~4096 shards and
// a mutation republishes one shard (~size/4096 entries) instead of
// rebuilding one giant stride table per op.
//
// Publication is RCU through MatchTable: mutations mark shards dirty and
// call Changed(); Publish() rebuilds only the dirty shards, shares the
// untouched ones by reference and stores the new Root through
// Published<Root>. Outside a batch that happens per op; between
// BeginBatch/EndBatch it is deferred, so a bulk frame costs one swap + one
// grace period and lookups keep the pre-batch Root until EndBatch. Lookups
// pin an epoch, walk one slot + one shard, and never take a lock or
// observe a torn view.
#pragma once

#include <memory>
#include <vector>

#include "table/table.h"

namespace ipsa::table {

class LpmTable : public MatchTable {
 public:
  LpmTable(TableSpec spec, mem::Pool& pool, mem::LogicalTable storage);
  ~LpmTable() override;

  void LookupInto(const mem::BitString& key, LookupResult& out) const override;
  void RefreshCache() override;

 protected:
  Status InsertOp(const Entry& entry, bool upsert) override;
  Status EraseOp(const Entry& entry) override;
  // Rebuilds dirty shards / short leaves into a fresh Root and stores it.
  void Publish() override;

 private:
  // Canonical writer-side trie node.
  struct Node {
    std::unique_ptr<Node> child[2];
    int32_t row = -1;  // storage row, -1 when no entry terminates here
  };

  static constexpr uint32_t kStrideBits = 4;
  static constexpr uint32_t kFanout = 1u << kStrideBits;

  // A resolved entry inside a published view: the storage row plus the
  // decoded action, so a hit never touches writer-side state.
  struct Leaf {
    uint32_t row = 0;
    CachedAction action;
  };

  // One stride level of a shard: for nibble value v, e[v].best indexes the
  // leaf of the longest prefix ending strictly inside this stride along v's
  // bit path, e[v].child the next stride node (-1 = path dies here). The
  // pair sits together, so a level costs one cache line.
  struct StrideEntry {
    int32_t best = -1;
    int32_t child = -1;
  };
  struct alignas(64) StrideNode {
    StrideEntry e[kFanout];
  };

  // Immutable stride trie over the key bits below the root partition, for
  // one slot's long prefixes. Shared between successive Roots while clean.
  struct SlotTrie {
    std::vector<StrideNode> nodes;  // [0] = root level when non-empty
    std::vector<Leaf> leaves;
  };

  struct SlotRef {
    int32_t short_leaf = -1;  // Root::short_leaves index, -1 = none
    std::shared_ptr<const SlotTrie> shard;  // null = no long prefixes
  };

  // The published view. Immutable after the atomic swap; reclaimed through
  // the rcu::Domain once every in-flight lookup has moved on.
  struct Root {
    uint32_t root_bits = 0;
    std::vector<SlotRef> slots;  // size 1 << root_bits
    std::vector<Leaf> short_leaves;
  };

  // MSB-first bit `i` of a key (bit 0 = most significant bit of the key).
  bool KeyBitMsb(const mem::BitString& key, uint32_t i) const {
    return key.GetBit(spec_.key_width_bits - 1 - i);
  }

  // Slot bits for a table of `spec`: ~64 entries per shard, so a shard
  // rebuild stays small while slot fan-out stays bounded (<= 4096 slots).
  static uint32_t RootBitsFor(const TableSpec& spec);
  static std::unique_ptr<Root> EmptyRoot(uint32_t root_bits);
  std::shared_ptr<const SlotTrie> BuildShard(
      const Node* base, std::vector<int32_t>& row_leaf) const;
  int32_t BuildStrideNode(const Node* n, uint32_t depth, SlotTrie& view,
                          std::vector<int32_t>& row_leaf) const;
  void MarkDirty(const Entry& entry);

  std::unique_ptr<Node> root_;

  const uint32_t root_bits_;
  Published<Root> view_;
  std::vector<bool> dirty_slots_;  // writer-side, slot index = top R bits
  // Writer-side row -> leaf-index scratch for BuildShard; every entry is
  // -1 between shard builds.
  std::vector<int32_t> row_leaf_;
  bool short_dirty_ = false;       // a prefix of length <= R changed
};

}  // namespace ipsa::table
