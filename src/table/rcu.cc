#include "table/rcu.h"

namespace ipsa::table::rcu {

// Per-thread lease on a reader slot; releasing at thread exit lets the slot
// be reclaimed by later threads. Namespace-scope (not anonymous) so it can
// be befriended by Domain for access to the private Slot type.
struct SlotLease {
  Domain::Slot* slot = nullptr;

  ~SlotLease() {
    if (slot != nullptr) {
      slot->epoch.store(Domain::kIdle, std::memory_order_release);
      slot->claimed.store(false, std::memory_order_release);
      Domain::reader_ = Domain::Reader{};
    }
  }
};

namespace {
thread_local SlotLease t_lease;
}  // namespace

// Constant-initialized: no construction-order hazard, and Global() is a
// plain address.
constinit Domain Domain::global_;

Domain::Slot* Domain::ClaimSlot() {
  if (reader_.domain == this && reader_.slot != nullptr) return reader_.slot;
  for (Slot& s : slots_) {
    bool expected = false;
    if (s.claimed.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
      t_lease.slot = &s;
      reader_ = Reader{this, &s, 0};
      return &s;
    }
  }
  return nullptr;  // capacity exhausted: caller falls back to overflow_pins_
}

void Domain::PinOutermost() {
  Slot* slot = ClaimSlot();
  if (slot == nullptr) {
    overflow_pins_.fetch_add(1, std::memory_order_seq_cst);
    return;
  }
  reader_.depth = 1;
  // Publish the pinned epoch, then re-check it: the seq_cst store/load pair
  // guarantees that if a concurrent Synchronize() missed this slot when
  // scanning, this thread sees the bumped epoch and retries — so a reader
  // is never invisible to the writer while holding a stale view pointer.
  for (;;) {
    uint64_t e = epoch_.load(std::memory_order_acquire);
    slot->epoch.store(e, std::memory_order_seq_cst);
    if (epoch_.load(std::memory_order_seq_cst) == e) return;
  }
}

void Domain::UnpinOutermost() {
  if (reader_.domain == this && reader_.slot != nullptr) {
    reader_.depth = 0;
    reader_.slot->epoch.store(kIdle, std::memory_order_release);
    return;
  }
  overflow_pins_.fetch_sub(1, std::memory_order_seq_cst);
}

void Domain::RetireRaw(void* p, void (*deleter)(void*)) {
  if (p == nullptr) return;
  std::lock_guard<std::mutex> lock(retire_mu_);
  retired_.push_back(
      Retired{p, deleter, epoch_.load(std::memory_order_relaxed)});
}

void Domain::Synchronize() {
  std::lock_guard<std::mutex> lock(retire_mu_);
  if (retired_.empty()) {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    return;
  }
  // Items retired before this bump carry epoch < new epoch value.
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (overflow_pins_.load(std::memory_order_seq_cst) > 0) return;
  uint64_t min_active = ~uint64_t{0};
  for (const Slot& s : slots_) {
    uint64_t e = s.epoch.load(std::memory_order_seq_cst);
    if (e != kIdle && e < min_active) min_active = e;
  }
  size_t kept = 0;
  for (Retired& r : retired_) {
    // A reader pinned at epoch > r.epoch synchronized with the bump that
    // followed the unlink, so it cannot hold r.ptr.
    if (r.epoch < min_active) {
      r.deleter(r.ptr);
    } else {
      retired_[kept++] = r;
    }
  }
  retired_.resize(kept);
}

size_t Domain::pending() const {
  std::lock_guard<std::mutex> lock(retire_mu_);
  return retired_.size();
}

Domain::~Domain() {
  // Process teardown: no readers can be active; free everything.
  for (Retired& r : retired_) r.deleter(r.ptr);
}

}  // namespace ipsa::table::rcu
