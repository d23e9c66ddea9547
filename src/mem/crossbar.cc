#include "mem/crossbar.h"

#include "mem/pool.h"

namespace ipsa::mem {

bool Crossbar::Routable(uint32_t proc, uint32_t block_id,
                        const Pool& pool) const {
  if (proc >= proc_count_ || block_id >= pool.block_count()) return false;
  if (kind_ == CrossbarKind::kFull) return true;
  return ProcCluster(proc) == pool.ClusterOf(block_id);
}

Status Crossbar::Connect(uint32_t proc, uint32_t block_id, const Pool& pool) {
  if (proc >= proc_count_) return OutOfRange("crossbar: bad processor port");
  if (block_id >= pool.block_count()) {
    return OutOfRange("crossbar: bad block id");
  }
  if (!Routable(proc, block_id, pool)) {
    return FailedPrecondition(
        "crossbar: clustered topology does not route this pair");
  }
  auto [it, inserted] = routes_.insert({proc, block_id});
  (void)it;
  if (inserted) ++config_words_;
  return OkStatus();
}

uint32_t Crossbar::DisconnectProc(uint32_t proc) {
  uint32_t removed = 0;
  for (auto it = routes_.begin(); it != routes_.end();) {
    if (it->first == proc) {
      it = routes_.erase(it);
      ++removed;
      ++config_words_;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<uint32_t> Crossbar::BlocksOf(uint32_t proc) const {
  std::vector<uint32_t> out;
  for (const auto& [p, b] : routes_) {
    if (p == proc) out.push_back(b);
  }
  return out;
}

}  // namespace ipsa::mem
