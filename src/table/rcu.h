// Epoch-based read-copy-update reclamation for table index views.
//
// The table subsystem publishes immutable index views through raw atomic
// pointers: writers build a replacement off to the side, swap the pointer
// (release), and retire the old view here. Readers pin the global epoch for
// the duration of one lookup; a retired view is freed only once every
// reader slot has observed an epoch newer than the retire epoch, so a
// lookup can dereference whatever pointer it loaded without locks,
// reference counts, or torn state — even while the control plane churns
// millions of entries.
//
// Concurrency contract (what the TSan churn suite pins down):
//  * any number of reader threads may Pin()/Unpin() concurrently;
//  * ONE writer thread at a time mutates a given table (the daemon's
//    control path is single-threaded; tests follow the same discipline) —
//    Retire/Synchronize serialize against each other internally so distinct
//    tables may write from distinct threads;
//  * Synchronize() never blocks on readers: views whose grace period has
//    not elapsed stay queued and are freed by a later Synchronize from any
//    table sharing the domain.
//
// Why not the alternatives: a seqlock would let readers observe torn
// shards (and is TSan-hostile); std::atomic<shared_ptr> takes a spinlock in
// libstdc++ and adds per-lookup reference-count traffic to the hot path.
// Epochs cost two uncontended atomic stores per outermost pin and nothing
// else; a device pins once per batch, so each lookup's own guard is only a
// thread-local depth increment.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace ipsa::table::rcu {

class Domain {
 public:
  // Reader slots are claimed per thread on first use and released at thread
  // exit. Threads beyond the fixed capacity fall back to a shared overflow
  // count that simply defers all reclamation while any of them is pinned.
  static constexpr size_t kMaxReaders = 128;
  static constexpr uint64_t kIdle = 0;

  // The process-global domain every table shares.
  static Domain& Global();

  // --- reader side -----------------------------------------------------------

  // Pins the calling thread at the current epoch. Until the matching
  // Unpin(), no view retired at or after this moment is freed. Pins nest:
  // only the outermost Pin publishes the epoch (two atomic stores plus an
  // epoch re-check) and only the outermost Unpin releases the slot; inner
  // pairs just move a per-thread depth counter. No allocation after the
  // thread's first call.
  void Pin();
  void Unpin();

  // RAII pin: one lookup, or a whole batch of packets around many lookups.
  class ReadGuard {
   public:
    explicit ReadGuard(Domain& d) : d_(&d) { d_->Pin(); }
    ~ReadGuard() { d_->Unpin(); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    Domain* d_;
  };

  // --- writer side -----------------------------------------------------------

  // Queues `p` for deletion once every current reader has moved on. The
  // pointer must already be unreachable from the published structures.
  template <typename T>
  void Retire(T* p) {
    RetireRaw(p, [](void* q) { delete static_cast<T*>(q); });
  }
  void RetireRaw(void* p, void (*deleter)(void*));

  // Advances the epoch and frees every retired view whose grace period has
  // elapsed. Called after each publication; O(kMaxReaders) loads.
  void Synchronize();

  // Number of retired-but-not-yet-freed views (tests).
  size_t pending() const;

  ~Domain();

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
    std::atomic<bool> claimed{false};
    // Nesting depth of the owning thread's pins; only that thread reads or
    // writes it, so it needs no atomicity.
    uint32_t depth = 0;
  };

  struct Retired {
    void* ptr;
    void (*deleter)(void*);
    uint64_t epoch;  // value of epoch_ when retired
  };

  Slot* ClaimSlot();
  friend struct SlotLease;

  // Epoch starts above kIdle so an idle slot can never alias a real pin.
  std::atomic<uint64_t> epoch_{1};
  Slot slots_[kMaxReaders];
  // Readers that arrived after every slot was claimed: while any is pinned,
  // reclamation is deferred wholesale.
  std::atomic<uint64_t> overflow_pins_{0};

  mutable std::mutex retire_mu_;
  std::vector<Retired> retired_;
};

}  // namespace ipsa::table::rcu
