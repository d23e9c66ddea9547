// HLIR — the target-independent intermediate representation produced by the
// p4lite front end (standing in for p4c's HLIR, which the paper's rp4fc
// consumes; §3.2 "rp4fc takes the HLIR, the target-independent output of
// p4c, as input").
//
// The HLIR keeps P4's structure: an explicit parse graph (states with
// extracts and select transitions) and per-control apply trees, rather than
// rP4's stage-oriented form. rp4fc and the PISA backend both lower from
// here.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/actions.h"
#include "arch/header_types.h"
#include "rp4/ast.h"
#include "util/status.h"

namespace ipsa::p4lite {

struct HlirParseState {
  std::string name;
  std::vector<std::string> extracts;  // header instance names, in order
  // Optional select at the end of the state.
  std::string select_instance;  // instance of the selector field
  std::string select_field;
  std::vector<std::pair<uint64_t, std::string>> transitions;  // tag -> state
  std::string default_transition = "accept";
};

// Control-flow tree of an `apply { ... }` block.
struct HlirApplyNode {
  enum class Kind { kSeq, kApply, kIf };
  Kind kind = Kind::kSeq;
  std::string table;                      // kApply
  arch::ExprPtr cond;                     // kIf
  std::vector<HlirApplyNode> children;    // kSeq body / kIf [then, else]
  std::vector<HlirApplyNode> else_children;  // kIf else branch
};

struct HlirControl {
  std::string name;
  // Action lists keep declaration order; action ids follow it.
  std::vector<rp4::Rp4TableDecl> tables;
  std::vector<arch::ActionDef> actions;
  HlirApplyNode apply;  // kSeq root
};

struct Hlir {
  std::string program_name = "p4_program";
  // Header *types* keyed by type name (no links; linkage lives in the parse
  // graph until a backend flattens it).
  std::vector<arch::HeaderTypeDef> header_types;
  // Instance name -> type name (from the headers struct).
  std::vector<std::pair<std::string, std::string>> header_instances;
  std::vector<std::pair<std::string, uint32_t>> metadata;  // name, width
  std::vector<rp4::Rp4RegisterDecl> registers;
  std::vector<HlirParseState> parse_states;
  std::string start_state = "start";
  HlirControl ingress;
  HlirControl egress;

  const arch::HeaderTypeDef* FindHeaderType(std::string_view name) const;
  const HlirParseState* FindState(std::string_view name) const;

  // Flattens the parse graph into per-header-type links (tag -> next header
  // type), the form both IPSA's distributed parsers and PISA's front parser
  // consume. Fails on states whose select field is ambiguous across paths.
  Result<arch::HeaderRegistry> BuildHeaderRegistry() const;
};

}  // namespace ipsa::p4lite

