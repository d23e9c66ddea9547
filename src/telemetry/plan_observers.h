// RunPlan observer policies shared by both behavioral devices.
//
// arch::RunPlan (arch/pipeline_plan.h) is templated over an Observer so the
// telemetry and trace hooks specialize out of the packet loop when unused.
// The arch layer cannot depend on telemetry, so the concrete observers live
// here: the devices pick one per batch —
//
//   PlanNullObserver   no telemetry, no trace (the hot path)
//   PlanShardObserver  per-stage counters into a MetricsShard
//   PlanTraceObserver  counters + full TraceStep recording (names filled)
#pragma once

#include "arch/pipeline_plan.h"
#include "telemetry/collector.h"
#include "telemetry/device_stats.h"

namespace ipsa::telemetry {

struct PlanShardObserver {
  static constexpr bool kFillNames = false;
  MetricsShard* shard = nullptr;

  void OnProgram(const arch::PlanGroup&, const arch::PlanProgram& program,
                 const arch::StageRunStats& stats) const {
    shard->OnStage(program.slot, stats.table_applied, stats.hit);
  }
};

struct PlanTraceObserver {
  static constexpr bool kFillNames = true;
  MetricsShard* shard = nullptr;  // may be null while tracing
  ProcessTrace* trace = nullptr;

  void OnProgram(const arch::PlanGroup& group,
                 const arch::PlanProgram& program,
                 const arch::StageRunStats& stats) const {
    if (shard != nullptr) {
      shard->OnStage(program.slot, stats.table_applied, stats.hit);
    }
    trace->steps.push_back(
        TraceStep{.unit = group.unit,
                  .stage = program.source->name,
                  .table = std::string(stats.applied_table),
                  .hit = stats.hit,
                  .action = std::string(stats.executed_action),
                  .parse_bytes = stats.parse_bytes});
  }
};

}  // namespace ipsa::telemetry
