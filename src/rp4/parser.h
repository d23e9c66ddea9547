// Recursive-descent parser for rP4 (the Fig. 2 grammar).
//
// Grammar sketch (terminals quoted):
//
//   program      := section*
//   section      := 'headers' '{' header* '}'
//                 | 'structs' '{' struct* '}'
//                 | 'register' ('<' 'bit' '<' N '>' '>')? name '[' N ']' ';'
//                 | action | table
//                 | 'control' ('rP4_Ingress'|'rP4_Egress') '{' stage* '}'
//                 | 'user_funcs' '{' func* entries '}'
//   header       := 'header' name '{' field* varsize? parser? '}'
//   field        := 'bit' '<' N '>' name ';'
//   varsize      := 'varsize' '(' field ',' add ',' mult ')' ';'
//   parser       := 'implicit' 'parser' '(' field ')' '{' (tag ':' name ';')* '}'
//   struct       := 'struct' name '{' field* '}' alias? ';'
//   action       := 'action' name '(' params ')' '{' stmt* '}'
//   table        := 'table' name '{' ('key' '=' '{' keyfield* '}')
//                     ('size' '=' N ';')? ('actions' '=' '{' name...'}')?
//                     ('default_action' '=' name ';')? '}'
//   stage        := 'stage' name '{' 'parser' '{' name...'}'
//                     'matcher' '{' if-chain '}'
//                     'executor' '{' (tag ':' action ';')* '}' '}'
//   func         := 'func' name '{' stage-name* '}'
//
// Fields, actions, tables, registers, statements and expressions are the
// grammar shared with the P4 front end; see rp4/action_parser.h.
#pragma once

#include <string_view>

#include "rp4/ast.h"
#include "util/status.h"

namespace ipsa::rp4 {

// Parses complete rP4 source text into a program.
Result<Rp4Program> ParseRp4(std::string_view source);

// Parses an rP4 *snippet* — the incremental unit fed to rp4bc when loading a
// function at runtime (Fig. 5a). A snippet may contain headers, structs,
// registers, actions, tables, bare `stage` definitions (no control wrapper)
// and `func` groupings.
Result<Rp4Program> ParseRp4Snippet(std::string_view source);

}  // namespace ipsa::rp4
