// The parse-match-action triad of one logical stage.
//
// A StageProgram is the *data* both architectures execute: in IPSA it is a
// TSP template (downloadable at runtime, paper §2.2); in PISA it is the
// configuration of one physical match-action stage. Running a stage:
//
//   1. parser:   ensure every instance in `parse_set` is in the PHV
//                (IPSA parses just-in-time here; PISA parsed up-front).
//   2. matcher:  first rule whose guard holds applies its table; the lookup
//                key comes from the table's binding.
//   3. executor: the hit entry's action_id selects the executor branch
//                (rP4's `<switch_tag>: <switch_actions>`), bound with the
//                entry's action data. On miss the default branch runs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arch/catalog.h"
#include "arch/expr.h"
#include "arch/parse_engine.h"
#include "util/status.h"

namespace ipsa::arch {

struct MatchRule {
  ExprPtr guard;      // null = unconditional
  std::string table;  // table to apply when the guard holds
};

struct StageProgram {
  std::string name;
  std::vector<std::string> parse_set;       // header instances needed
  std::vector<MatchRule> matcher;           // evaluated in order
  std::map<uint32_t, std::string> executor; // action_id (tag) -> action name
  std::string miss_action = "NoAction";     // run when no table/rule hits

  // Rough config volume of this template in 32-bit words; the device model
  // charges load time per word (paper: writing a template takes a few
  // clock cycles per word).
  uint32_t ConfigWords() const;
};

// Per-stage outcome, returned by value on every stage run, so it holds no
// owning strings. The names are views into the installed configuration
// (stage program, table spec, action def), valid until the next
// configuration change; the compiled walk fills them only when tracing.
struct StageRunStats {
  bool table_applied = false;
  bool hit = false;
  std::string_view applied_table;
  std::string_view executed_action;
  uint64_t parse_cycles = 0;
  uint64_t parse_bytes = 0;    // header bytes extracted just-in-time here
  uint64_t match_cycles = 0;   // rule evaluations + memory access
  uint64_t access_cycles = 0;  // memory access alone (1 xbar + bus beats)
  uint64_t action_cycles = 0;
};

// Executes one stage against a packet context. `jit_parse` selects IPSA
// (true: parse parse_set on demand) vs PISA (false: PHV assumed complete).
Result<StageRunStats> RunStage(const StageProgram& stage, PacketContext& ctx,
                               const TableCatalog& catalog,
                               const ActionStore& actions, RegisterFile* regs,
                               bool jit_parse);

}  // namespace ipsa::arch
