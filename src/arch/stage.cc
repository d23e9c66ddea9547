#include "arch/stage.h"

namespace ipsa::arch {

uint32_t StageProgram::ConfigWords() const {
  // parse_set: one word per header indicator; matcher: ~4 words per rule
  // (predicate opcode stream + table pointer); executor: 2 words per branch
  // (tag + action pointer); plus one word of stage control.
  uint32_t words = 1;
  words += static_cast<uint32_t>(parse_set.size());
  words += static_cast<uint32_t>(matcher.size()) * 4;
  words += static_cast<uint32_t>(executor.size()) * 2;
  return words;
}

Result<StageRunStats> RunStage(const StageProgram& stage, PacketContext& ctx,
                               const TableCatalog& catalog,
                               const ActionStore& actions, RegisterFile* regs,
                               bool jit_parse) {
  StageRunStats stats;

  // 1. Parser sub-module.
  if (jit_parse && !stage.parse_set.empty()) {
    IPSA_ASSIGN_OR_RETURN(ParseStats ps,
                          ParseEngine::ParseUntil(ctx, stage.parse_set));
    stats.parse_cycles = ps.cycles;
    stats.parse_bytes = ps.bytes_parsed;
  }

  // 2. Matcher sub-module.
  EvalEnv guard_env{.ctx = &ctx, .args = nullptr, .regs = regs};
  const std::string* chosen_table = nullptr;
  for (const MatchRule& rule : stage.matcher) {
    ctx.ChargeCycles(1);
    ++stats.match_cycles;
    if (rule.guard != nullptr) {
      IPSA_ASSIGN_OR_RETURN(bool taken, rule.guard->EvalBool(guard_env));
      if (!taken) continue;
    }
    if (rule.table.empty()) break;  // explicit "else: no table" branch
    chosen_table = &rule.table;
    break;
  }

  uint32_t tag = 0;
  bool run_executor = false;
  // Empty args for the no-table path; table lookups fill the per-worker
  // scratch in place so the hot path never allocates.
  static const mem::BitString kNoArgs;
  const mem::BitString* action_data = &kNoArgs;
  if (chosen_table != nullptr) {
    table::LookupScratch& scratch = ctx.lookup_scratch();
    IPSA_RETURN_IF_ERROR(
        catalog.BuildKeyInto(*chosen_table, ctx, scratch.key));
    IPSA_ASSIGN_OR_RETURN(table::MatchTable * tbl, catalog.Get(*chosen_table));
    table::LookupResult& result = scratch.result;
    tbl->LookupInto(scratch.key, result);
    scratch.tally.Count(*tbl, result);
    ctx.ChargeCycles(result.access_cycles);
    stats.match_cycles += result.access_cycles;
    stats.access_cycles = result.access_cycles;
    stats.table_applied = true;
    stats.applied_table = *chosen_table;
    stats.hit = result.hit;
    tag = result.action_id;
    action_data = &result.action_data;
    run_executor = true;
  }

  // 3. Executor sub-module.
  const std::string* action_name = &stage.miss_action;
  if (run_executor) {
    // An unmapped tag falls through to the miss action (rP4's `default:`).
    auto it = stage.executor.find(tag);
    if (it != stage.executor.end()) {
      action_name = &it->second;
    }
  }
  IPSA_ASSIGN_OR_RETURN(const ActionDef* action, actions.Get(*action_name));
  uint64_t before = ctx.cycles();
  IPSA_RETURN_IF_ERROR(ExecuteAction(*action, *action_data, ctx, regs));
  stats.action_cycles = ctx.cycles() - before;
  stats.executed_action = *action_name;
  return stats;
}

}  // namespace ipsa::arch
