#include "table/lpm_table.h"

#include <algorithm>

namespace ipsa::table {

uint32_t LpmTable::RootBitsFor(const TableSpec& spec) {
  uint32_t bits = 0;
  while ((1u << (bits + 1)) <= spec.size) ++bits;
  return std::min({bits > 6 ? bits - 6 : 0, 12u, spec.key_width_bits});
}

std::unique_ptr<LpmTable::Root> LpmTable::EmptyRoot(uint32_t root_bits) {
  auto root = std::make_unique<Root>();
  root->root_bits = root_bits;
  root->slots.resize(size_t{1} << root_bits);
  return root;
}

LpmTable::LpmTable(TableSpec spec, mem::Pool& pool, mem::LogicalTable storage)
    : MatchTable(std::move(spec), pool, std::move(storage)),
      root_(std::make_unique<Node>()),
      root_bits_(RootBitsFor(spec_)),
      view_(EmptyRoot(root_bits_)),
      dirty_slots_(size_t{1} << root_bits_, false) {}

LpmTable::~LpmTable() {
  // Free the trie iteratively; recursive destruction of a deep chain of
  // unique_ptrs can overflow the stack for adversarial prefix sets.
  std::vector<std::unique_ptr<Node>> stack;
  stack.push_back(std::move(root_));
  while (!stack.empty()) {
    std::unique_ptr<Node> n = std::move(stack.back());
    stack.pop_back();
    if (!n) continue;
    stack.push_back(std::move(n->child[0]));
    stack.push_back(std::move(n->child[1]));
  }
}

void LpmTable::MarkDirty(const Entry& entry) {
  if (entry.prefix_len <= root_bits_) {
    // Short prefixes live in the per-slot leaf array, rebuilt wholesale.
    short_dirty_ = true;
    return;
  }
  // prefix_len > R: the top R bits are fully specified — exactly one shard.
  uint32_t v = root_bits_ != 0
                   ? static_cast<uint32_t>(entry.key.GetBits(
                         spec_.key_width_bits - root_bits_, root_bits_))
                   : 0;
  dirty_slots_[v] = true;
}

Status LpmTable::InsertOp(const Entry& entry, bool upsert) {
  // Walk the existing path read-only: an insert the table refuses must
  // leave no nodes behind for later publishes to expand.
  Node* node = root_.get();
  uint32_t depth = 0;
  for (; depth < entry.prefix_len; ++depth) {
    Node* next = node->child[KeyBitMsb(entry.key, depth) ? 1 : 0].get();
    if (next == nullptr) break;
    node = next;
  }
  if (depth == entry.prefix_len && node->row >= 0) {
    if (!upsert) {
      return AlreadyExists(Describe() + ": duplicate prefix");
    }
    IPSA_RETURN_IF_ERROR(storage_.WriteRow(
        *pool_, static_cast<uint32_t>(node->row), PackRow(entry)));
  } else {
    IPSA_ASSIGN_OR_RETURN(uint32_t row, AddRow(entry));
    for (; depth < entry.prefix_len; ++depth) {
      auto& child = node->child[KeyBitMsb(entry.key, depth) ? 1 : 0];
      child = std::make_unique<Node>();
      node = child.get();
    }
    node->row = static_cast<int32_t>(row);
  }
  MarkDirty(entry);
  Changed();
  return OkStatus();
}

Status LpmTable::EraseOp(const Entry& entry) {
  Node* node = root_.get();
  for (uint32_t i = 0; i < entry.prefix_len && node != nullptr; ++i) {
    node = node->child[KeyBitMsb(entry.key, i) ? 1 : 0].get();
  }
  if (node == nullptr || node->row < 0) {
    return NotFound(Describe() + ": prefix not present");
  }
  IPSA_RETURN_IF_ERROR(ReleaseRow(static_cast<uint32_t>(node->row)));
  node->row = -1;
  MarkDirty(entry);
  Changed();
  return OkStatus();
}

void LpmTable::Publish() {
  const Root* old = &view_.Current();
  auto next = std::make_unique<Root>();
  next->root_bits = root_bits_;
  size_t slot_count = size_t{1} << root_bits_;
  next->slots.resize(slot_count);
  if (!short_dirty_) next->short_leaves = old->short_leaves;
  // Sized on the first publish, then reset per shard by walking its leaves,
  // so a publish does no O(size) work beyond the slot copy.
  if (row_leaf_.empty()) row_leaf_.assign(spec_.size, -1);
  for (size_t v = 0; v < slot_count; ++v) {
    SlotRef& slot = next->slots[v];
    if (!short_dirty_ && !dirty_slots_[v]) {
      slot = old->slots[v];  // clean: share the shard, keep the leaf
      continue;
    }
    // Walk the top R bits of this slot, leaf-pushing the deepest short
    // prefix; the node reached at depth R anchors the slot's shard.
    const Node* walk = root_.get();
    int32_t best_row = root_->row;
    for (uint32_t j = 0; j < root_bits_ && walk != nullptr; ++j) {
      walk = walk->child[(v >> (root_bits_ - 1 - j)) & 1].get();
      if (walk != nullptr && walk->row >= 0) best_row = walk->row;
    }
    if (short_dirty_) {
      if (best_row >= 0) {
        slot.short_leaf = static_cast<int32_t>(next->short_leaves.size());
        next->short_leaves.push_back(
            Leaf{static_cast<uint32_t>(best_row), DecodeRow(best_row)});
      }
    } else {
      slot.short_leaf = old->slots[v].short_leaf;
    }
    slot.shard =
        dirty_slots_[v] ? BuildShard(walk, row_leaf_) : old->slots[v].shard;
  }
  view_.Store(std::move(next));
  std::fill(dirty_slots_.begin(), dirty_slots_.end(), false);
  short_dirty_ = false;
}

std::shared_ptr<const LpmTable::SlotTrie> LpmTable::BuildShard(
    const Node* base, std::vector<int32_t>& row_leaf) const {
  if (base == nullptr || (!base->child[0] && !base->child[1])) return nullptr;
  auto view = std::make_shared<SlotTrie>();
  BuildStrideNode(base, root_bits_, *view, row_leaf);
  for (const Leaf& l : view->leaves) row_leaf[l.row] = -1;
  return view;
}

// Expands the binary subtrie below `n` (at MSB depth `depth`) into one
// stride node: for each of the 2^s values of the next s key bits, walk the
// bit path and leaf-push the deepest row passed, remembering where the next
// stride continues. Unused high values of a partial final stride stay at -1
// and are never indexed by Lookup.
int32_t LpmTable::BuildStrideNode(const Node* n, uint32_t depth,
                                  SlotTrie& view,
                                  std::vector<int32_t>& row_leaf) const {
  uint32_t s = std::min(kStrideBits, spec_.key_width_bits - depth);
  int32_t self = static_cast<int32_t>(view.nodes.size());
  view.nodes.emplace_back();
  for (uint32_t v = 0; v < (1u << s); ++v) {
    const Node* walk = n;
    int32_t best = -1;
    for (uint32_t j = 0; j < s && walk != nullptr; ++j) {
      walk = walk->child[(v >> (s - 1 - j)) & 1].get();
      if (walk != nullptr && walk->row >= 0) {
        int32_t& leaf = row_leaf[walk->row];
        if (leaf < 0) {
          leaf = static_cast<int32_t>(view.leaves.size());
          view.leaves.push_back(Leaf{static_cast<uint32_t>(walk->row),
                                     DecodeRow(walk->row)});
        }
        best = leaf;
      }
    }
    view.nodes[self].e[v].best = best;
    if (walk != nullptr && depth + s < spec_.key_width_bits &&
        (walk->child[0] || walk->child[1])) {
      int32_t child = BuildStrideNode(walk, depth + s, view, row_leaf);
      // Recursion may grow view.nodes; re-index instead of holding a
      // reference across the call.
      view.nodes[self].e[v].child = child;
    }
  }
  return self;
}

void LpmTable::LookupInto(const mem::BitString& key, LookupResult& out) const {
  rcu::Domain::ReadGuard guard(rcu::Domain::Global());
  const Root* root = view_.Load();
  // The slot index and every stride nibble are inline word reads of the
  // key (BitString::GetBits: one load, two across a word boundary).
  const uint32_t width = spec_.key_width_bits;
  const uint32_t rb = root->root_bits;
  const uint32_t top =
      rb != 0 ? static_cast<uint32_t>(key.GetBits(width - rb, rb)) : 0;
  const SlotRef& slot = root->slots[top];
  const Leaf* best = slot.short_leaf >= 0
                         ? &root->short_leaves[slot.short_leaf]
                         : nullptr;
  // Reading through the shared_ptr without copying it is safe: the Root is
  // immutable and epoch-protected, and it holds the shard alive.
  const SlotTrie* shard = slot.shard.get();
  if (shard != nullptr && !shard->nodes.empty()) {
    // Key bits [0, below) are still unconsumed; each level takes the top
    // (up to) kStrideBits of them.
    uint32_t below = width - rb;
    int32_t node = 0;
    while (node >= 0 && below > 0) {
      const uint32_t s = std::min(kStrideBits, below);
      below -= s;
      const uint32_t v = static_cast<uint32_t>(key.GetBits(below, s));
      const StrideEntry& se = shard->nodes[static_cast<size_t>(node)].e[v];
      if (se.best >= 0) best = &shard->leaves[se.best];
      node = se.child;
    }
  }
  if (best == nullptr) {
    MissInto(out);
    return;
  }
  HitInto(best->row, best->action, out);
}

void LpmTable::RefreshCache() {
  // Pool rows were rewritten underneath us: re-decode everything.
  std::fill(dirty_slots_.begin(), dirty_slots_.end(), true);
  short_dirty_ = true;
  Changed();
}

}  // namespace ipsa::table
