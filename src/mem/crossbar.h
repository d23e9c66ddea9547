// Crossbar interconnect between stage processors and memory blocks
// (paper §2.4). A full crossbar lets any processor reach any block; a
// clustered crossbar only connects processor-cluster i to memory-cluster i,
// trading flexibility for silicon cost — the tradeoff §2.4 and the
// discussion in §5 call out.
//
// The crossbar is *statically configured per design*: rp4bc emits routes,
// the controller writes them, and every write counts config words so load
// time (t_L) can be charged faithfully.
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ipsa::mem {

enum class CrossbarKind { kFull, kClustered };

class Pool;

class Crossbar {
 public:
  // `proc_count` processor-side ports; processor clusters mirror the pool's
  // memory clusters (processor p belongs to cluster p % clusters).
  Crossbar(CrossbarKind kind, uint32_t proc_count, uint32_t clusters)
      : kind_(kind), proc_count_(proc_count), clusters_(clusters) {}

  CrossbarKind kind() const { return kind_; }
  uint32_t proc_count() const { return proc_count_; }
  uint32_t clusters() const { return clusters_; }

  uint32_t ProcCluster(uint32_t proc) const {
    return clusters_ <= 1 ? 0 : proc % clusters_;
  }

  // Whether routing proc -> block is permitted by the topology.
  bool Routable(uint32_t proc, uint32_t block_id, const Pool& pool) const;

  Status Connect(uint32_t proc, uint32_t block_id, const Pool& pool);
  // Tears down every route of `proc`; returns the number removed.
  uint32_t DisconnectProc(uint32_t proc);

  bool IsConnected(uint32_t proc, uint32_t block_id) const {
    return routes_.count({proc, block_id}) > 0;
  }
  std::vector<uint32_t> BlocksOf(uint32_t proc) const;
  size_t route_count() const { return routes_.size(); }

  // Every route Connect adds or DisconnectProc removes writes one
  // configuration word; the device model charges load time per word.
  uint64_t config_words_written() const { return config_words_; }
  void ResetConfigCounter() { config_words_ = 0; }

 private:
  CrossbarKind kind_;
  uint32_t proc_count_;
  uint32_t clusters_;
  std::set<std::pair<uint32_t, uint32_t>> routes_;
  uint64_t config_words_ = 0;
};

}  // namespace ipsa::mem
