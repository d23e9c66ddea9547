// The grammar the rP4 and P4 front ends share. The paper's Fig. 2 EBNF
// defines rP4's declarations and leaves statements and expressions "common
// with P4"; this is that common part, plus the declarations both languages
// spell alike: fields, actions, tables and registers.
//
//   action    := 'action' name '(' (bit name (',' bit name)*)? ')' '{' stmt* '}'
//   table     := 'table' name '{' ('key' '=' '{' (field ':' kind ';')* '}'
//                  | 'actions' '=' '{' name* '}' | 'size' '=' N ';'
//                  | 'default_action' '=' name ';')* '}'
//   register  := 'register' ('<' bit '>')? name '[' N ']' ';'
//   bit       := 'bit' '<' N '>'          (N in [1, kMaxWidth])
//   stmt      := field '=' expr ';' | reg '[' expr ']' '=' expr ';'
//              | 'if' '(' expr ')' '{' stmt* '}' ('else' '{' stmt* '}')?
//              | ('drop' | 'mark_to_drop') '(' 'standard_metadata'? ')' ';'
//              | 'mark' '(' ')' ';' | ('no_op' | 'NoAction') '(' ')' ';'
//              | 'forward' '(' expr ')' ';'
//              | 'push_header' '(' inst (',' inst (',' expr)?)? ')' ';'
//              | 'pop_header' '(' inst ')' ';'
//              | 'update_checksum' '(' inst (',' name)? ')' ';'
//              | 'set_raw' '(' inst ',' expr ',' N ',' expr ')' ';'
//   expr      := C-like precedence over || && | ^ & == != < <= > >= << >> + - *
//                with unary ! ~, over numbers, true/false, params, fields,
//                reg '[' expr ']', inst '.isValid()', get_raw(inst, expr, N),
//                sat_add / fxp_quantize / fxp_dequantize (expr, expr)
//
// The two dialects differ only in naming, which the front end passes in as
// data:
//   - the header prefix: P4 may write a header instance `hdr.<instance>`
//     (`hdr.x.f`, `hdr.x.isValid()`, `push_header(hdr.x)`); rP4 has none.
//     Bare instance names parse in both.
//   - the metadata scopes, `<scope>.<field>`: P4's are `meta` and
//     `standard_metadata`; rP4's are `meta` plus each struct alias it
//     declares (AddMetadataScope).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "arch/actions.h"
#include "rp4/ast.h"
#include "rp4/lexer.h"
#include "util/status.h"

namespace ipsa::rp4 {

class ActionParser {
 public:
  // Recursive-descent depth is C++ stack depth, so adversarial nesting (50k
  // parentheses) must fail with a Status, never a stack overflow.
  static constexpr int kMaxNesting = 64;
  // Every `bit<N>` and get_raw/set_raw width lies in [1, kMaxWidth]: width 0
  // has no packet representation, and a giant width would size device
  // buffers, keys and action data proportionally.
  static constexpr uint64_t kMaxWidth = 4096;

 protected:
  // `header_prefix` is kept as a view; the front ends pass a literal.
  ActionParser(std::vector<Token> tokens, std::string_view header_prefix,
               std::initializer_list<std::string_view> metadata_scopes);

  void AddMetadataScope(std::string scope) {
    metadata_scopes_.insert(std::move(scope));
  }

  // Each declaration parser starts at its keyword.
  Result<arch::ActionDef> ParseAction();
  Result<Rp4TableDecl> ParseTable();
  Result<Rp4RegisterDecl> ParseRegister();
  // 'bit' '<' N '>' name ';'
  Result<Rp4FieldDecl> ParseFieldDecl();
  // 'varsize' '(' len-field ',' add ',' mult ')' ';'
  Result<Rp4VarSizeDecl> ParseVarSize();

  Result<arch::ExprPtr> ParseExpr();

  struct NestingGuard {
    explicit NestingGuard(int& depth) : depth_(depth) { ++depth_; }
    ~NestingGuard() { --depth_; }
    int& depth_;
  };

  TokenCursor cur_;
  int stmt_depth_ = 0;

 private:
  // Statements up to and including the closing '}'.
  Result<std::vector<arch::ActionOp>> ParseStatements();
  Result<arch::ActionOp> ParseStatement();
  Result<arch::FieldRef> ParseFieldRef();
  // A width literal, checked against [1, kMaxWidth].
  Result<uint32_t> ExpectWidth();
  Result<uint32_t> ParseBitType();
  Result<std::string> ParseInstanceName();
  // Completes a field reference whose leading identifier `first` is
  // already consumed.
  Result<arch::FieldRef> FinishFieldRef(const std::string& first);
  Result<arch::ExprPtr> ParseBinary(int level);
  Result<arch::ExprPtr> ParseUnary();
  Result<arch::ExprPtr> ParsePrimary();

  bool IsHeaderPrefix(std::string_view name) const {
    return !header_prefix_.empty() && name == header_prefix_;
  }
  bool IsMetadataScope(std::string_view name) const {
    return metadata_scopes_.find(name) != metadata_scopes_.end();
  }

  int expr_depth_ = 0;
  std::string_view header_prefix_;
  std::set<std::string, std::less<>> metadata_scopes_;
  std::set<std::string, std::less<>> param_names_;
  std::set<std::string, std::less<>> register_names_;
};

}  // namespace ipsa::rp4
