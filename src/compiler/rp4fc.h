// rp4fc — the rP4 front-end compiler (paper §3.2, Fig. 3).
//
// Input:  the HLIR (p4lite's target-independent output, standing in for
//         p4c's HLIR).
// Output: (1) a semantically equivalent rP4 program, and
//         (2) the runtime table-access API spec for the controller.
#pragma once

#include "p4lite/hlir.h"
#include "rp4/ast.h"
#include "util/json.h"
#include "util/status.h"

namespace ipsa::compiler {

// The per-table runtime API: how the controller encodes entries.
struct TableApi {
  std::string table;
  table::MatchKind match_kind = table::MatchKind::kExact;
  std::vector<arch::FieldRef> key_fields;
  std::vector<uint32_t> key_field_widths;
  // Action name -> (tag used as action_id, parameter widths).
  std::map<std::string, std::pair<uint32_t, std::vector<uint32_t>>,
           std::less<>>
      actions;
};

struct ApiSpec {
  std::map<std::string, TableApi, std::less<>> tables;

  const TableApi* Find(std::string_view table) const {
    auto it = tables.find(table);
    return it == tables.end() ? nullptr : &it->second;
  }
  util::Json ToJson() const;
};

struct Rp4fcResult {
  rp4::Rp4Program program;
  ApiSpec api;
};

// Transforms the HLIR into rP4. The emitted program is also pretty-printable
// via rp4::PrintRp4 and re-parseable (the real design flow writes the text).
Result<Rp4fcResult> RunRp4fc(const p4lite::Hlir& hlir);

// Builds the API spec from any design (used after incremental updates too).
ApiSpec BuildApiSpec(const arch::DesignConfig& design);

}  // namespace ipsa::compiler
