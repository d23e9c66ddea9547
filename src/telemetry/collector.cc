#include "telemetry/collector.h"

namespace ipsa::telemetry {

void Collector::Configure(const TelemetryConfig& config, uint32_t port_count) {
  config_ = config;
  port_count_ = port_count;
  master_.SizeTo(port_count_, stage_infos_.size());
  ring_.Configure(config_.trace);
}

void Collector::SetStages(std::vector<StageInfo> stages) {
  bool same = stages.size() == stage_infos_.size();
  if (same) {
    for (size_t i = 0; i < stages.size(); ++i) {
      if (stages[i].unit != stage_infos_[i].unit ||
          stages[i].name != stage_infos_[i].name) {
        same = false;
        break;
      }
    }
  }
  stage_infos_ = std::move(stages);
  if (!same) {
    // Layout changed: positional counters no longer mean the same thing.
    master_.stages.assign(stage_infos_.size(), StageMetrics{});
  }
}

void Collector::OnUpdateWindow(uint64_t config_epoch, double wall_micros) {
  if (!config_.enabled) return;
  ++updates_;
  last_update_epoch_ = config_epoch;
  last_update_ms_ = wall_micros / 1000.0;
  update_window_us_.Observe(static_cast<uint64_t>(wall_micros));
}

void Collector::OnDrainWindow(uint64_t drain_cycles) {
  if (!config_.enabled) return;
  drain_window_cycles_.Observe(drain_cycles);
}

void Collector::CommitTrace(uint64_t config_epoch, uint32_t in_port,
                            const ProcessResult& result, ProcessTrace trace) {
  TraceRecord record;
  record.config_epoch = config_epoch;
  record.in_port = in_port;
  record.result = result;
  record.trace = std::move(trace);
  ring_.Commit(std::move(record));
}

MetricsSnapshot Collector::Snapshot(uint64_t config_epoch,
                                    const DeviceStats& device) {
  MetricsSnapshot snap;
  snap.enabled = config_.enabled;
  snap.seq = ++snapshot_seq_;
  snap.config_epoch = config_epoch;
  snap.device = device;
  for (uint32_t p = 0; p < master_.ports.size(); ++p) {
    if (master_.ports[p].packets_in == 0) continue;  // quiet ports stay out
    snap.ports.push_back(PortRow{p, master_.ports[p]});
  }
  for (size_t i = 0; i < master_.stages.size(); ++i) {
    const StageInfo info = i < stage_infos_.size() ? stage_infos_[i]
                                                   : StageInfo{};
    if (info.name.empty() && master_.stages[i].executions == 0) continue;
    snap.stages.push_back(StageRow{info.unit, info.name, master_.stages[i]});
  }
  snap.updates = updates_;
  snap.last_update_epoch = last_update_epoch_;
  snap.last_update_ms = last_update_ms_;
  snap.update_window_us = update_window_us_;
  snap.drain_window_cycles = drain_window_cycles_;
  snap.traces_captured = ring_.captured();
  snap.traces_dropped = ring_.dropped();
  snap.traces_pending = ring_.pending();
  return snap;
}

void Collector::Reset() {
  master_.Reset();
  updates_ = 0;
  last_update_epoch_ = 0;
  last_update_ms_ = 0;
  update_window_us_.Reset();
  drain_window_cycles_.Reset();
  ring_.Reset();
}

}  // namespace ipsa::telemetry
