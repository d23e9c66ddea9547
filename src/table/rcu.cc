#include "table/rcu.h"

namespace ipsa::table::rcu {

// The calling thread's leases in every domain but its first (whose lease is
// Domain::reader_), and the release of all of them at thread exit, which
// lets later threads reclaim the slots. Namespace-scope (not anonymous) so
// it can be befriended by Domain for access to the private types.
struct SlotLeases {
  // Domains beyond the first that one thread pins at once; a thread past
  // this falls back to the domain's overflow count.
  static constexpr size_t kMaxOther = 7;
  Domain::Reader other[kMaxOther] = {};
  // Set when the thread first claims a slot, so this destructor is
  // registered for the thread.
  bool armed = false;

  static void Release(Domain::Reader& r) {
    if (r.slot != nullptr) {
      r.slot->epoch.store(Domain::kIdle, std::memory_order_release);
      r.slot->claimed.store(false, std::memory_order_release);
    }
    r = Domain::Reader{};
  }

  ~SlotLeases() {
    Release(Domain::reader_);
    for (Domain::Reader& r : other) Release(r);
  }
};

namespace {
thread_local SlotLeases t_leases;
}  // namespace

// Constant-initialized: no construction-order hazard, and Global() is a
// plain address.
constinit Domain Domain::global_;

Domain::Reader* Domain::LeaseFor(bool create) {
  if (reader_.domain == this) return &reader_;
  if (reader_.domain == nullptr) {
    if (!create) return nullptr;
    reader_.domain = this;
    return &reader_;
  }
  Reader* free = nullptr;
  for (Reader& r : t_leases.other) {
    if (r.domain == this) return &r;
    if (r.domain == nullptr && free == nullptr) free = &r;
  }
  if (!create || free == nullptr) return nullptr;
  free->domain = this;
  return free;
}

Domain::Slot* Domain::ClaimSlot(Reader& lease) {
  for (size_t i = 0; i < kMaxReaders; ++i) {
    Slot& s = slots_[i];
    bool expected = false;
    if (!s.claimed.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      continue;
    }
    // Cover the slot in every Synchronize scan before its first pin is
    // published (PinOutermost's seq_cst store comes after this).
    size_t high = claimed_high_.load(std::memory_order_seq_cst);
    while (high < i + 1 &&
           !claimed_high_.compare_exchange_weak(high, i + 1,
                                                std::memory_order_seq_cst)) {
    }
    t_leases.armed = true;
    lease.slot = &s;
    return &s;
  }
  return nullptr;  // capacity exhausted: caller falls back to overflow_pins_
}

void Domain::PinOutermost() {
  Reader* lease = LeaseFor(/*create=*/true);
  if (lease != nullptr && lease->depth > 0) {
    ++lease->depth;  // a nested pin in a domain other than the first
    return;
  }
  Slot* slot = nullptr;
  if (lease != nullptr) {
    slot = lease->slot != nullptr ? lease->slot : ClaimSlot(*lease);
  }
  if (slot == nullptr) {
    overflow_pins_.fetch_add(1, std::memory_order_seq_cst);
    return;
  }
  lease->depth = 1;
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
  Reader* lease = LeaseFor(/*create=*/false);
  if (lease == nullptr || lease->depth == 0) {
    // This pin went to the overflow count (no slot was free).
    overflow_pins_.fetch_sub(1, std::memory_order_seq_cst);
    return;
  }
  if (--lease->depth == 0) {
    lease->slot->epoch.store(kIdle, std::memory_order_release);
  }
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
  // A slot claimed after this load raised claimed_high_ after the bump
  // above, so its first pin re-checks the epoch, sees the bump and pins at
  // the new value: it cannot hold anything retired before it.
  const size_t high = claimed_high_.load(std::memory_order_seq_cst);
  uint64_t min_active = ~uint64_t{0};
  for (size_t i = 0; i < high; ++i) {
    uint64_t e = slots_[i].epoch.load(std::memory_order_seq_cst);
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
