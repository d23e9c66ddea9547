// rP4 program representation (Fig. 2 EBNF).
//
// Statement-level constructs (action bodies, matcher predicates, executor
// dispatch) lower directly into the arch:: data structures during parsing —
// they are already the "template parameter" form a TSP consumes, so a
// separate statement AST would only duplicate them. Declaration-level
// constructs keep their surface structure for the pretty-printer and the
// incremental design flow (rp4bc edits the base design at this level).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/design.h"

namespace ipsa::rp4 {

struct Rp4FieldDecl {
  std::string name;
  uint32_t width_bits = 0;
};

struct Rp4ParserDecl {
  std::string selector_field;
  std::vector<std::pair<uint64_t, std::string>> links;  // tag -> header
};

struct Rp4VarSizeDecl {
  std::string len_field;
  uint32_t add = 0;
  uint32_t multiplier = 1;
};

struct Rp4HeaderDecl {
  std::string name;
  std::vector<Rp4FieldDecl> fields;
  std::optional<Rp4ParserDecl> parser;  // the rP4 "implicit parser"
  std::optional<Rp4VarSizeDecl> varsize;
};

struct Rp4StructDecl {
  std::string name;
  std::vector<Rp4FieldDecl> members;
  std::string alias;  // e.g. "meta"
};

struct Rp4KeyField {
  arch::FieldRef field;
  std::string match_type;  // exact | lpm | ternary | hash/selector
};

struct Rp4TableDecl {
  std::string name;
  std::vector<Rp4KeyField> key;
  uint32_t size = 1024;
  std::vector<std::string> actions;  // optional action list
  std::string default_action = "NoAction";
};

struct Rp4RegisterDecl {
  std::string name;
  uint32_t size = 0;
  uint32_t width_bits = 64;
};

struct Rp4FuncDecl {
  std::string name;
  std::vector<std::string> stages;
};

struct Rp4Program {
  std::string name = "rp4_program";
  std::vector<Rp4HeaderDecl> headers;
  std::string entry_header = "ethernet";
  std::vector<Rp4StructDecl> structs;
  std::vector<Rp4RegisterDecl> registers;
  std::vector<arch::ActionDef> actions;
  std::vector<Rp4TableDecl> tables;
  std::vector<arch::StageProgram> ingress_stages;
  std::vector<arch::StageProgram> egress_stages;
  std::vector<Rp4FuncDecl> funcs;
  std::string ingress_entry;
  std::string egress_entry;

  const Rp4TableDecl* FindTable(std::string_view name) const;
  const arch::ActionDef* FindAction(std::string_view name) const;
  const arch::StageProgram* FindStage(std::string_view name) const;
  const Rp4FuncDecl* FindFunc(std::string_view name) const;
  // Width of a header or metadata field, 0 when unknown.
  uint32_t FieldWidth(const arch::FieldRef& ref) const;
};

// Lowers a parsed program to the device-loadable design.
Result<arch::DesignConfig> LowerToDesign(const Rp4Program& program);

// The action-data width LowerToDesign gives `table`: its widest listed
// action's parameters (every action of `program` when it lists none), at
// least 8 bits. Fails when it lists an action `program` does not declare.
Result<uint32_t> TableActionDataWidth(const Rp4Program& program,
                                      const Rp4TableDecl& table);

}  // namespace ipsa::rp4
