// The per-device telemetry front door.
//
// A behavioral device owns one Collector. When disabled (the default), the
// only cost on the packet path is `shard() == nullptr` — one branch. When
// enabled, the device:
//   * passes shard() (or a worker shard from PrepareWorkerShard) into its
//     ProcessCore so counters/histograms accumulate without atomics;
//   * calls SetStages() from its EnsureCompiled so stage slots map to
//     logical stage names (an unchanged layout keeps its counters across
//     recompiles; a changed layout starts fresh — the epoch tag in the
//     snapshot marks the transition);
//   * brackets reconfigurations with OnUpdateWindow / OnDrainWindow so a
//     scrape across an in-situ update shows the paper's headline numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/trace_ring.h"

namespace ipsa::telemetry {

struct TelemetryConfig {
  bool enabled = false;
  TraceConfig trace;  // sampling is independent of counter collection
};

// One stage slot in the device's current layout.
struct StageInfo {
  uint32_t unit = 0;  // physical stage index / TSP id
  std::string name;   // logical stage name ("" = empty slot)
};

class Collector {
 public:
  void Configure(const TelemetryConfig& config, uint32_t port_count);
  bool enabled() const { return config_.enabled; }
  const TelemetryConfig& config() const { return config_; }

  // Null when disabled: the single-branch gate for the packet path.
  MetricsShard* shard() { return config_.enabled ? &master_ : nullptr; }

  // Installs the current stage layout. Counters survive when the layout is
  // unchanged (same units and names); otherwise per-stage counters restart.
  void SetStages(std::vector<StageInfo> stages);

  // A parallel drain worker's shard: zeroed and sized like the master
  // before the worker's share, merged into the master after the join.
  void PrepareWorkerShard(MetricsShard& shard) const {
    shard.SizeTo(master_.ports.size(), master_.stages.size());
  }
  void MergeWorkerShard(const MetricsShard& shard) {
    master_.MergeFrom(shard);
  }

  // Reconfiguration windows (recorded only when enabled).
  void OnUpdateWindow(uint64_t config_epoch, double wall_micros);
  void OnDrainWindow(uint64_t drain_cycles);

  // Sampled tracing.
  bool ShouldTrace(uint32_t in_port) {
    return config_.enabled && ring_.ShouldTrace(in_port);
  }
  void CommitTrace(uint64_t config_epoch, uint32_t in_port,
                   const ProcessResult& result, ProcessTrace trace);
  std::vector<TraceRecord> DrainTraces(uint32_t max = 0) {
    return ring_.Drain(max);
  }

  // Epoch-tagged copy of everything except per-table rows (the owner fills
  // those from its table catalog, which keeps this layer table-agnostic).
  MetricsSnapshot Snapshot(uint64_t config_epoch, const DeviceStats& device);

  // Clears counters, histograms, windows, and the trace ring. The
  // configuration (enabled flag, sampling predicate) is preserved.
  void Reset();

 private:
  TelemetryConfig config_;
  uint32_t port_count_ = 0;
  MetricsShard master_;
  std::vector<StageInfo> stage_infos_;

  uint64_t snapshot_seq_ = 0;
  uint64_t updates_ = 0;
  uint64_t last_update_epoch_ = 0;
  double last_update_ms_ = 0;
  Histogram update_window_us_;
  Histogram drain_window_cycles_;

  TraceRing ring_;
};

}  // namespace ipsa::telemetry
