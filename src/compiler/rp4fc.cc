#include "compiler/rp4fc.h"

#include "compiler/linearize.h"
#include "rp4/parser.h"

namespace ipsa::compiler {

namespace {

// Rebuilds surface header declarations from a flattened registry.
std::vector<rp4::Rp4HeaderDecl> HeadersFromRegistry(
    const arch::HeaderRegistry& registry) {
  std::vector<rp4::Rp4HeaderDecl> out;
  for (const auto& name : registry.TypeNames()) {
    auto def = registry.Get(name);
    if (!def.ok()) continue;
    rp4::Rp4HeaderDecl h;
    h.name = name;
    for (const auto& f : (*def)->fields()) {
      h.fields.push_back(rp4::Rp4FieldDecl{f.name, f.width_bits});
    }
    if ((*def)->selector_field().has_value()) {
      rp4::Rp4ParserDecl p;
      p.selector_field = *(*def)->selector_field();
      for (const auto& [tag, next] : (*def)->links()) {
        p.links.emplace_back(tag, next);
      }
      h.parser = std::move(p);
    }
    if ((*def)->var_size().has_value()) {
      h.varsize = rp4::Rp4VarSizeDecl{(*def)->var_size()->len_field,
                                      (*def)->var_size()->add,
                                      (*def)->var_size()->multiplier};
    }
    out.push_back(std::move(h));
  }
  return out;
}

}  // namespace

util::Json ApiSpec::ToJson() const {
  util::Json j = util::Json::Object();
  for (const auto& [name, api] : tables) {
    util::Json tj = util::Json::Object();
    tj["match"] = std::string(table::MatchKindName(api.match_kind));
    util::Json key = util::Json::Array();
    for (size_t i = 0; i < api.key_fields.size(); ++i) {
      util::Json kf = util::Json::Object();
      kf["field"] = api.key_fields[i].ToString();
      kf["width"] = api.key_field_widths[i];
      key.push_back(std::move(kf));
    }
    tj["key"] = std::move(key);
    util::Json actions = util::Json::Object();
    for (const auto& [action, info] : api.actions) {
      util::Json aj = util::Json::Object();
      aj["id"] = info.first;
      util::Json widths = util::Json::Array();
      for (uint32_t w : info.second) widths.push_back(w);
      aj["param_widths"] = std::move(widths);
      actions[action] = std::move(aj);
    }
    tj["actions"] = std::move(actions);
    j[name] = std::move(tj);
  }
  return j;
}

ApiSpec BuildApiSpec(const arch::DesignConfig& design) {
  ApiSpec spec;
  auto field_width = [&design](const arch::FieldRef& ref) -> uint32_t {
    if (ref.space == arch::FieldRef::Space::kMeta) {
      for (const auto& m : design.metadata) {
        if (m.name == ref.field) return m.width_bits;
      }
      arch::Metadata std_meta = arch::Metadata::Standard();
      return std_meta.WidthOf(ref.field);
    }
    auto def = design.headers.Get(ref.instance);
    if (!def.ok()) return 0;
    auto w = (*def)->FieldWidthBits(ref.field);
    return w.ok() ? *w : 0;
  };
  auto param_widths = [&design](std::string_view action) {
    std::vector<uint32_t> out;
    for (const auto& a : design.actions) {
      if (a.name == action) {
        for (const auto& p : a.params) out.push_back(p.width_bits);
      }
    }
    return out;
  };

  auto scan_stage = [&](const arch::StageProgram& stage) {
    for (const auto& rule : stage.matcher) {
      if (rule.table.empty()) continue;
      for (const auto& t : design.tables) {
        if (t.spec.name != rule.table) continue;
        TableApi& api = spec.tables[rule.table];
        api.table = rule.table;
        api.match_kind = t.spec.match_kind;
        api.key_fields = t.binding.key_fields;
        api.key_field_widths.clear();
        for (const auto& f : t.binding.key_fields) {
          api.key_field_widths.push_back(field_width(f));
        }
        for (const auto& [tag, action] : stage.executor) {
          api.actions[action] = {tag, param_widths(action)};
        }
      }
    }
  };
  for (const auto& s : design.ingress_stages) scan_stage(s);
  for (const auto& s : design.egress_stages) scan_stage(s);
  return spec;
}

Result<Rp4fcResult> RunRp4fc(const p4lite::Hlir& hlir) {
  Rp4fcResult result;
  rp4::Rp4Program& prog = result.program;
  prog.name = hlir.program_name;

  // Headers with the parse graph folded into implicit parsers.
  IPSA_ASSIGN_OR_RETURN(arch::HeaderRegistry registry,
                        hlir.BuildHeaderRegistry());
  prog.headers = HeadersFromRegistry(registry);
  prog.entry_header = registry.entry_type();

  // Metadata struct.
  if (!hlir.metadata.empty()) {
    rp4::Rp4StructDecl meta;
    meta.name = "metadata_t";
    meta.alias = "meta";
    for (const auto& [name, width] : hlir.metadata) {
      meta.members.push_back(rp4::Rp4FieldDecl{name, width});
    }
    prog.structs.push_back(std::move(meta));
  }

  for (const auto& r : hlir.registers) prog.registers.push_back(r);

  // Actions from both controls.
  for (const auto& a : hlir.ingress.actions) prog.actions.push_back(a);
  for (const auto& a : hlir.egress.actions) prog.actions.push_back(a);

  // Tables.
  for (const auto& t : hlir.ingress.tables) prog.tables.push_back(t);
  for (const auto& t : hlir.egress.tables) prog.tables.push_back(t);

  // Stages from the apply trees.
  IPSA_ASSIGN_OR_RETURN(prog.ingress_stages,
                        LinearizeControl(hlir.ingress, "ig"));
  IPSA_ASSIGN_OR_RETURN(prog.egress_stages,
                        LinearizeControl(hlir.egress, "eg"));

  // Fill parse sets (the rP4 per-stage parser blocks).
  std::vector<arch::TableDecl> table_decls;
  {
    // Temporarily lower tables for parse-set computation.
    IPSA_ASSIGN_OR_RETURN(arch::DesignConfig tmp, rp4::LowerToDesign(prog));
    table_decls = tmp.tables;
  }
  for (auto& s : prog.ingress_stages) {
    s.parse_set = ComputeParseSet(s, table_decls, prog.actions);
  }
  for (auto& s : prog.egress_stages) {
    s.parse_set = ComputeParseSet(s, table_decls, prog.actions);
  }

  // The whole base design forms one user function.
  rp4::Rp4FuncDecl base;
  base.name = "base";
  for (const auto& s : prog.ingress_stages) base.stages.push_back(s.name);
  for (const auto& s : prog.egress_stages) base.stages.push_back(s.name);
  prog.funcs.push_back(std::move(base));
  if (!prog.ingress_stages.empty()) {
    prog.ingress_entry = prog.ingress_stages.front().name;
  }
  if (!prog.egress_stages.empty()) {
    prog.egress_entry = prog.egress_stages.front().name;
  }

  // API spec from the lowered design.
  IPSA_ASSIGN_OR_RETURN(arch::DesignConfig design, rp4::LowerToDesign(prog));
  result.api = BuildApiSpec(design);
  return result;
}

}  // namespace ipsa::compiler
