#include "rp4/ast.h"

#include <algorithm>

namespace ipsa::rp4 {

const Rp4TableDecl* Rp4Program::FindTable(std::string_view name) const {
  for (const auto& t : tables) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

const arch::ActionDef* Rp4Program::FindAction(std::string_view name) const {
  for (const auto& a : actions) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

const arch::StageProgram* Rp4Program::FindStage(std::string_view name) const {
  for (const auto& s : ingress_stages) {
    if (s.name == name) return &s;
  }
  for (const auto& s : egress_stages) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Rp4FuncDecl* Rp4Program::FindFunc(std::string_view name) const {
  for (const auto& f : funcs) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

uint32_t Rp4Program::FieldWidth(const arch::FieldRef& ref) const {
  if (ref.space == arch::FieldRef::Space::kMeta) {
    for (const auto& s : structs) {
      for (const auto& m : s.members) {
        if (m.name == ref.field) return m.width_bits;
      }
    }
    // Standard metadata widths.
    arch::Metadata std_meta = arch::Metadata::Standard();
    return std_meta.WidthOf(ref.field);
  }
  for (const auto& h : headers) {
    if (h.name == ref.instance) {
      for (const auto& f : h.fields) {
        if (f.name == ref.field) return f.width_bits;
      }
    }
  }
  return 0;
}

namespace {

Result<table::MatchKind> TableMatchKind(const Rp4TableDecl& t) {
  // P4 rules: at most one lpm field; any ternary field makes the table
  // ternary; all-hash keys make a selector; otherwise exact.
  bool has_lpm = false, has_ternary = false, has_exact = false,
       has_hash = false;
  for (const auto& kf : t.key) {
    if (kf.match_type == "lpm") {
      if (has_lpm) {
        return InvalidArgument("table '" + t.name + "': multiple lpm fields");
      }
      has_lpm = true;
    } else if (kf.match_type == "ternary") {
      has_ternary = true;
    } else if (kf.match_type == "exact") {
      has_exact = true;
    } else if (kf.match_type == "hash" || kf.match_type == "selector") {
      has_hash = true;
    } else {
      return InvalidArgument("table '" + t.name + "': unknown match type '" +
                             kf.match_type + "'");
    }
  }
  if (has_hash) {
    if (has_lpm || has_ternary || has_exact) {
      return InvalidArgument("table '" + t.name +
                             "': hash keys cannot mix with other kinds");
    }
    return table::MatchKind::kSelector;
  }
  if (has_ternary) return table::MatchKind::kTernary;
  if (has_lpm) return table::MatchKind::kLpm;
  return table::MatchKind::kExact;
}

}  // namespace

Result<arch::DesignConfig> LowerToDesign(const Rp4Program& program) {
  arch::DesignConfig design;
  design.name = program.name;

  // Headers.
  for (const auto& h : program.headers) {
    std::vector<arch::FieldDef> fields;
    fields.reserve(h.fields.size());
    for (const auto& f : h.fields) {
      fields.push_back(arch::FieldDef{f.name, f.width_bits});
    }
    arch::HeaderTypeDef def(h.name, std::move(fields));
    if (h.parser.has_value()) {
      def.SetSelectorField(h.parser->selector_field);
      for (const auto& [tag, next] : h.parser->links) {
        def.SetLink(tag, next);
      }
    }
    if (h.varsize.has_value()) {
      def.SetVarSize(arch::VarSizeRule{.len_field = h.varsize->len_field,
                                       .add = h.varsize->add,
                                       .multiplier = h.varsize->multiplier});
    }
    IPSA_RETURN_IF_ERROR(design.headers.Add(std::move(def)));
  }
  design.headers.SetEntryType(program.entry_header);

  // Metadata from structs.
  for (const auto& s : program.structs) {
    for (const auto& m : s.members) {
      design.metadata.push_back(arch::MetadataDecl{m.name, m.width_bits});
    }
  }

  // Actions and registers pass through.
  design.actions = program.actions;
  for (const auto& r : program.registers) {
    design.registers.push_back(arch::RegisterDecl{r.name, r.size});
  }

  for (const auto& t : program.tables) {
    arch::TableDecl decl;
    decl.spec.name = t.name;
    IPSA_ASSIGN_OR_RETURN(decl.spec.match_kind, TableMatchKind(t));
    decl.spec.size = t.size;
    uint32_t key_width = 0;
    for (const auto& kf : t.key) {
      uint32_t w = program.FieldWidth(kf.field);
      if (w == 0) {
        return InvalidArgument("table '" + t.name + "': unknown key field " +
                               kf.field.ToString());
      }
      key_width += w;
      decl.binding.key_fields.push_back(kf.field);
    }
    decl.spec.key_width_bits = key_width;
    IPSA_ASSIGN_OR_RETURN(decl.spec.action_data_width_bits,
                          TableActionDataWidth(program, t));
    design.tables.push_back(std::move(decl));
  }

  design.ingress_stages = program.ingress_stages;
  design.egress_stages = program.egress_stages;
  return design;
}

Result<uint32_t> TableActionDataWidth(const Rp4Program& program,
                                      const Rp4TableDecl& table) {
  uint32_t width = 0;
  if (table.actions.empty()) {
    // No action list: the widest action parameter block of the program.
    for (const auto& a : program.actions) {
      width = std::max(width, a.ParamsWidthBits());
    }
  }
  for (const auto& name : table.actions) {
    const arch::ActionDef* a = program.FindAction(name);
    if (a == nullptr && name != "NoAction") {
      return InvalidArgument("table '" + table.name +
                             "' references unknown action '" + name + "'");
    }
    if (a != nullptr) width = std::max(width, a->ParamsWidthBits());
  }
  return std::max<uint32_t>(width, 8);
}

}  // namespace ipsa::rp4
