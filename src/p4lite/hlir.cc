#include "p4lite/hlir.h"

namespace ipsa::p4lite {

const arch::HeaderTypeDef* Hlir::FindHeaderType(std::string_view name) const {
  for (const auto& t : header_types) {
    if (t.name() == name) return &t;
  }
  return nullptr;
}

const HlirParseState* Hlir::FindState(std::string_view name) const {
  for (const auto& s : parse_states) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string Hlir::InstanceType(std::string_view instance) const {
  for (const auto& [inst, type] : header_instances) {
    if (inst == instance) return type;
  }
  return "";
}

Result<arch::HeaderRegistry> Hlir::BuildHeaderRegistry() const {
  // Instance -> header type def (instances are what the pipeline sees; we
  // register one type per *instance* so per-instance links are unambiguous).
  // The definitions are completed here and registered at the end, so the
  // registry resolves their links in one go.
  std::vector<arch::HeaderTypeDef> defs;
  auto def_of = [&defs](const std::string& name) -> arch::HeaderTypeDef* {
    for (arch::HeaderTypeDef& d : defs) {
      if (d.name() == name) return &d;
    }
    return nullptr;
  };
  for (const auto& [inst, type_name] : header_instances) {
    const arch::HeaderTypeDef* type = FindHeaderType(type_name);
    if (type == nullptr) {
      return NotFound("headers struct references unknown type '" + type_name +
                      "'");
    }
    if (def_of(inst) != nullptr) {
      return AlreadyExists("header type already registered");
    }
    arch::HeaderTypeDef copy(inst, type->fields());
    if (type->var_size().has_value()) copy.SetVarSize(*type->var_size());
    defs.push_back(std::move(copy));
  }

  // Walk the parse graph: a state that extracts instance X and then selects
  // on X.f with transitions {tag -> state extracting Y} contributes links
  // X --(f, tag)--> Y.
  for (const auto& state : parse_states) {
    if (state.select_field.empty() || state.extracts.empty()) continue;
    const std::string& from = state.extracts.back();
    if (state.select_instance != from) {
      // Selecting on a previously-extracted header is legal P4 but exceeds
      // what per-header implicit parsers can express.
      return Unimplemented(
          "parse state '" + state.name +
          "' selects on a field of a non-latest header; not supported");
    }
    arch::HeaderTypeDef* def = def_of(from);
    if (def == nullptr) {
      return NotFound("header type '" + from + "' not registered");
    }
    if (def->selector_field().has_value() &&
        *def->selector_field() != state.select_field) {
      return InvalidArgument("header '" + from +
                             "' has conflicting selector fields");
    }
    def->SetSelectorField(state.select_field);
    for (const auto& [tag, next_state_name] : state.transitions) {
      if (next_state_name == "accept" || next_state_name == "reject") {
        continue;
      }
      const HlirParseState* next = FindState(next_state_name);
      if (next == nullptr) {
        return NotFound("transition to unknown state '" + next_state_name +
                        "'");
      }
      if (next->extracts.empty()) continue;
      def->SetLink(tag, next->extracts.front());
    }
  }

  arch::HeaderRegistry registry;
  for (arch::HeaderTypeDef& def : defs) {
    IPSA_RETURN_IF_ERROR(registry.Add(std::move(def)));
  }

  // Entry type: first extract of the start state.
  const HlirParseState* start = FindState(start_state);
  if (start == nullptr || start->extracts.empty()) {
    return InvalidArgument("start state missing or extracts nothing");
  }
  registry.SetEntryType(start->extracts.front());
  return registry;
}

}  // namespace ipsa::p4lite
