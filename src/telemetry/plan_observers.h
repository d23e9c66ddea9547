// The plan walk both behavioral devices share, with its telemetry.
//
// arch::RunPlan (arch/pipeline_plan.h) is templated over an Observer so the
// telemetry and trace hooks specialize out of the packet loop when unused.
// The arch layer cannot depend on telemetry, so the concrete observers live
// here, and RunObservedPlan picks one per packet —
//
//   PlanNullObserver   no telemetry, no trace (the hot path)
//   PlanShardObserver  per-stage counters into a MetricsShard
//   PlanTraceObserver  counters + full TraceStep recording (names filled)
//
// CountResult is the common tail of every ProcessCore: the packet's verdict
// into the ProcessResult, the device counters and the per-port metrics.
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

// Runs `plan` under the cheapest observer that records what was asked for:
// a non-null `trace` records every stage, a non-null `shard` counts them.
inline Result<arch::PlanRunStats> RunObservedPlan(
    const arch::PipelinePlan& plan, arch::PacketContext& ctx,
    const arch::TableCatalog& catalog, const arch::ActionStore& actions,
    arch::RegisterFile* regs, MetricsShard* shard, ProcessTrace* trace) {
  if (trace != nullptr) {
    return arch::RunPlan(plan, ctx, catalog, actions, regs,
                         PlanTraceObserver{shard, trace});
  }
  if (shard != nullptr) {
    return arch::RunPlan(plan, ctx, catalog, actions, regs,
                         PlanShardObserver{shard});
  }
  return arch::RunPlan(plan, ctx, catalog, actions, regs,
                       arch::PlanNullObserver{});
}

// Copies the walked packet's verdict into `result` and counts it.
inline void CountResult(const arch::PacketContext& ctx, uint32_t in_port,
                        ProcessResult& result, DeviceStats& stats,
                        MetricsShard* shard) {
  result.dropped = ctx.dropped();
  result.marked = ctx.marked();
  result.egress_port = ctx.egress_spec();
  result.cycles = ctx.cycles();
  stats.total_cycles += ctx.cycles();
  if (result.dropped) {
    ++stats.packets_dropped;
  } else {
    ++stats.packets_out;
  }
  if (result.marked) ++stats.packets_marked;
  if (shard != nullptr) shard->OnResult(in_port, result);
}

}  // namespace ipsa::telemetry
