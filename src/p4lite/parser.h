// p4lite — a P4-16 subset front end (stand-in for p4c; see DESIGN.md).
//
// Supported surface:
//   header <name>_t { bit<N> f; ... [varsize(f, add, mult);] }
//   struct metadata_t { bit<N> f; ... }          (any struct not headers_t)
//   struct headers_t { <type> <instance>; ... }  (the header layout)
//   register<bit<N>> name[size];                 (dialect: array registers)
//   parser <name>(...) { state ... }             (extract + select/transition)
//   control <name>(...) { action... table... apply {...} }
//
// The first control is ingress, the second (if present) egress. Fields,
// actions, tables, registers, statements and expressions are the grammar
// shared with rP4 (rp4/action_parser.h), in the P4 dialect: field references
// are `hdr.<instance>.<field>` (or `<instance>.<field>`), `meta.<field>`, or
// `standard_metadata.<field>`.
#pragma once

#include <string_view>

#include "p4lite/hlir.h"
#include "util/status.h"

namespace ipsa::p4lite {

Result<Hlir> ParseP4(std::string_view source);

}  // namespace ipsa::p4lite
