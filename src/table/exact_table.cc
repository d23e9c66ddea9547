#include "table/exact_table.h"

#include <algorithm>

namespace ipsa::table {

namespace {

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

ExactTable::ExactTable(TableSpec spec, mem::Pool& pool,
                       mem::LogicalTable storage)
    : MatchTable(std::move(spec), pool, std::move(storage)) {
  // Pre-size buckets at ~0.5 load factor; no rehash ever happens, so chains
  // stay short and bucket heads are stable memory for the lifetime of the
  // table.
  size_t buckets = NextPow2(std::max<size_t>(16, size_t{spec_.size} * 2));
  buckets_ = std::vector<std::atomic<Node*>>(buckets);
  for (auto& b : buckets_) b.store(nullptr, std::memory_order_relaxed);
  bucket_mask_ = buckets - 1;
}

ExactTable::~ExactTable() {
  // No readers by contract at destruction; retired nodes are owned (and
  // freed) by the rcu::Domain independent of this table.
  for (auto& bucket : buckets_) {
    Node* n = bucket.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }
}

ExactTable::Node* ExactTable::Find(const std::atomic<Node*>& bucket,
                                   const mem::BitString& key) {
  Node* n = bucket.load(std::memory_order_relaxed);
  while (n != nullptr && !SameKey(n->key, key)) {
    n = n->next.load(std::memory_order_relaxed);
  }
  return n;
}

void ExactTable::RepublishBucket(std::atomic<Node*>& bucket,
                                 const Node* remove, Node* add,
                                 bool redecode) {
  auto& domain = rcu::Domain::Global();
  Node* head = bucket.load(std::memory_order_relaxed);
  // Copy the prefix [head, remove). Old nodes are never mutated, so a reader
  // already walking the old chain still sees a complete, terminated list.
  Node* new_head = nullptr;
  Node* tail = nullptr;
  for (Node* n = head; n != remove;
       n = n->next.load(std::memory_order_relaxed)) {
    Node* copy = new Node;
    copy->row = n->row;
    copy->key = n->key;
    copy->action = redecode ? DecodeRow(n->row) : n->action;
    if (tail != nullptr) {
      tail->next.store(copy, std::memory_order_relaxed);
    } else {
      new_head = copy;
    }
    tail = copy;
  }
  Node* suffix = remove != nullptr
                     ? remove->next.load(std::memory_order_relaxed)
                     : nullptr;
  if (add != nullptr) {
    add->next.store(suffix, std::memory_order_relaxed);
    suffix = add;
  }
  if (tail != nullptr) {
    tail->next.store(suffix, std::memory_order_relaxed);
  } else {
    new_head = suffix;
  }
  bucket.store(new_head, std::memory_order_release);
  for (Node* n = head; n != remove;) {
    Node* next = n->next.load(std::memory_order_relaxed);
    domain.Retire(n);
    n = next;
  }
  if (remove != nullptr) domain.Retire(const_cast<Node*>(remove));
}

Status ExactTable::InsertOp(const Entry& entry, bool upsert) {
  std::atomic<Node*>& bucket = BucketOf(entry.key);
  if (Node* existing = Find(bucket, entry.key); existing != nullptr) {
    if (!upsert) {
      return AlreadyExists(Describe() + ": duplicate key");
    }
    // Modify in place at the row level, then republish the node so readers
    // switch from the old decoded action to the new one atomically.
    IPSA_RETURN_IF_ERROR(
        storage_.WriteRow(*pool_, existing->row, PackRow(entry)));
    Node* repl = new Node;
    repl->row = existing->row;
    repl->key = existing->key;
    repl->action = DecodeRow(existing->row);
    RepublishBucket(bucket, existing, repl);
    Changed();
    return OkStatus();
  }
  IPSA_ASSIGN_OR_RETURN(uint32_t row, AddRow(entry));
  // New key: push-front publication, nothing to copy or retire, so no
  // grace period either.
  Node* node = new Node;
  node->row = row;
  node->key = entry.key;
  node->action = DecodeRow(row);
  node->next.store(bucket.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  bucket.store(node, std::memory_order_release);
  return OkStatus();
}

Status ExactTable::EraseOp(const Entry& entry) {
  std::atomic<Node*>& bucket = BucketOf(entry.key);
  Node* existing = Find(bucket, entry.key);
  if (existing == nullptr) {
    return NotFound(Describe() + ": key not present");
  }
  IPSA_RETURN_IF_ERROR(ReleaseRow(existing->row));
  RepublishBucket(bucket, existing, nullptr);
  Changed();
  return OkStatus();
}

void ExactTable::LookupInto(const mem::BitString& key,
                            LookupResult& out) const {
  rcu::Domain::ReadGuard guard(rcu::Domain::Global());
  const Node* n =
      buckets_[HashKey(key) & bucket_mask_].load(std::memory_order_acquire);
  while (n != nullptr && !SameKey(n->key, key)) {
    n = n->next.load(std::memory_order_acquire);
  }
  if (n == nullptr) {
    MissInto(out);
    return;
  }
  HitInto(n->row, n->action, out);
}

void ExactTable::RefreshCache() {
  // Republish every chain with freshly decoded actions; readers see either
  // the whole old chain or the whole new one.
  for (auto& bucket : buckets_) {
    if (bucket.load(std::memory_order_relaxed) != nullptr) {
      RepublishBucket(bucket, nullptr, nullptr, /*redecode=*/true);
    }
  }
  Changed();
}

}  // namespace ipsa::table
