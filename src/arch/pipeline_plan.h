// Epoch-specialized pipeline execution plans: the one per-packet walk of
// both behavioral devices.
//
// CompileStage (compiled_stage.h) removes the per-packet name resolution
// inside one stage; a PipelinePlan removes it between stages. At
// config-epoch commit the owning device lowers its installed template into
// a straight-line walk:
//
//   * dead-stage elision — empty physical stages disappear from the walk;
//     their mandatory traversal cycles are folded into the next active
//     group's `entry_cycles` (or the side's `*_tail_cycles` when the
//     pipeline ends in empties), so the cycle ledger stays bit-identical
//     to traversing every physical stage (the cycle-ledger test pins it);
//   * pre-resolved program pointers — each PlanProgram carries the compiled
//     stage (or null, running the interpreter on its source) plus its
//     telemetry slot, so the packet path chases no optionals;
//   * observer specialization — RunPlan is templated over an Observer
//     policy; the null observer compiles the telemetry and trace hooks out
//     of the loop entirely (telemetry/plan_observers.h picks one per packet).
//
// Every ExecMode walks the plan. kInterpret builds it with every
// `PlanProgram::compiled == nullptr`, so RunStage — the name-resolving
// interpreter — stays the per-stage reference the differential oracle
// compares the compiled stages against. Like the compiled stages the plan
// dangles on any CCM mutation: the owning device rebuilds both in
// EnsureCompiled under the same epoch key before the next packet.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/compiled_stage.h"
#include "arch/ii_model.h"
#include "arch/stage.h"

namespace ipsa::arch {

// How a device executes the programs of its plan. The differential fuzzing
// harness pins devices to each mode and asserts bit-identical outputs.
enum class ExecMode {
  kInterpret,   // name-resolving interpreter (RunStage) for every program
  kSpecialize,  // compiled stages (interpreter fallback per program)
};

// One stage program inside a plan group. `compiled == nullptr` means the
// program did not compile (unresolvable reference) and runs through the
// interpreter; `source` is always set.
struct PlanProgram {
  const CompiledStage* compiled = nullptr;
  const StageProgram* source = nullptr;
  uint32_t slot = 0;  // telemetry stage slot (Collector::SetStages layout)
};

// One traversal unit: a physical PISA stage or an active IPSA TSP.
struct PlanGroup {
  uint32_t unit = 0;          // trace unit id (physical slot / TSP id)
  uint32_t entry_cycles = 0;  // charged on entering the group (includes any
                              // elided empty stages preceding it)
  std::vector<PlanProgram> programs;
};

struct PipelinePlan {
  std::vector<PlanGroup> ingress;
  std::vector<PlanGroup> egress;
  // Elided empty stages *after* the last active group of a side; charged
  // only when the packet was not dropped (a drop leaves the pipeline before
  // reaching them).
  uint32_t ingress_tail_cycles = 0;
  uint32_t egress_tail_cycles = 0;
  // Traffic-manager cycles between the sides (IPSA charges 1, PISA 0).
  uint32_t tm_cycles = 0;
  // IPSA TSPs parse just-in-time per program; PISA parses up front.
  bool jit_parse = false;
  // IPSA computes a per-group initiation interval (IpsaTspIi); PISA's II is
  // parser-bound and computed by the caller.
  bool per_group_ii = false;

  std::string ToString() const;  // debug / test introspection
};

struct PlanRunStats {
  // max IpsaTspIi over the traversed groups when `per_group_ii`, else 1.0.
  double worst_ii = 1.0;
};

// Observer with every hook compiled out: the hot path for untraced,
// untelemetered batches.
struct PlanNullObserver {
  static constexpr bool kFillNames = false;
  void OnProgram(const PlanGroup&, const PlanProgram&,
                 const StageRunStats&) const {}
};

// Executes one packet through the plan. Cycle accounting and drop
// semantics model a walk over every physical stage; the cycle-ledger test
// pins them to hand-computed constants.
template <typename Observer>
Result<PlanRunStats> RunPlan(const PipelinePlan& plan, PacketContext& ctx,
                             const TableCatalog& catalog,
                             const ActionStore& actions, RegisterFile* regs,
                             Observer&& observer) {
  constexpr bool kFillNames = std::remove_reference_t<Observer>::kFillNames;
  PlanRunStats out;
  auto run_side = [&](const std::vector<PlanGroup>& groups,
                      uint32_t tail_cycles) -> Status {
    for (const PlanGroup& group : groups) {
      ctx.ChargeCycles(group.entry_cycles);
      uint64_t parse_bytes = 0;
      uint64_t access = 0;
      for (const PlanProgram& program : group.programs) {
        StageRunStats run_stats;
        if (program.compiled != nullptr) {
          IPSA_ASSIGN_OR_RETURN(
              run_stats, RunCompiledStage(*program.compiled, ctx, regs,
                                          plan.jit_parse, kFillNames));
        } else {
          IPSA_ASSIGN_OR_RETURN(run_stats,
                                RunStage(*program.source, ctx, catalog,
                                         actions, regs, plan.jit_parse));
        }
        parse_bytes += run_stats.parse_bytes;
        if (run_stats.access_cycles > access) access = run_stats.access_cycles;
        observer.OnProgram(group, program, run_stats);
        if (ctx.dropped()) break;
      }
      if (plan.per_group_ii) {
        double ii = IpsaTspIi(parse_bytes, access);
        if (ii > out.worst_ii) out.worst_ii = ii;
      }
      // A drop ends the side immediately; trailing elided stages are never
      // reached.
      if (ctx.dropped()) return OkStatus();
    }
    ctx.ChargeCycles(tail_cycles);
    return OkStatus();
  };
  IPSA_RETURN_IF_ERROR(run_side(plan.ingress, plan.ingress_tail_cycles));
  if (!ctx.dropped()) {
    ctx.ChargeCycles(plan.tm_cycles);
    IPSA_RETURN_IF_ERROR(run_side(plan.egress, plan.egress_tail_cycles));
  }
  return out;
}

}  // namespace ipsa::arch
