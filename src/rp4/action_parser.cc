#include "rp4/action_parser.h"

namespace ipsa::rp4 {

using arch::ActionDef;
using arch::ActionOp;
using arch::ActionParam;
using arch::Expr;
using arch::ExprPtr;
using arch::FieldRef;

ActionParser::ActionParser(
    std::vector<Token> tokens, std::string_view header_prefix,
    std::initializer_list<std::string_view> metadata_scopes)
    : cur_(std::move(tokens)), header_prefix_(header_prefix) {
  for (std::string_view scope : metadata_scopes) {
    metadata_scopes_.emplace(scope);
  }
}

// --- declarations ------------------------------------------------------------

Result<uint32_t> ActionParser::ExpectWidth() {
  IPSA_ASSIGN_OR_RETURN(uint64_t width, cur_.ExpectNumber());
  if (width == 0 || width > kMaxWidth) {
    return cur_.ErrorHere("width " + std::to_string(width) + " outside [1, " +
                          std::to_string(kMaxWidth) + "]");
  }
  return static_cast<uint32_t>(width);
}

Result<uint32_t> ActionParser::ParseBitType() {
  IPSA_RETURN_IF_ERROR(cur_.Expect("bit"));
  IPSA_RETURN_IF_ERROR(cur_.Expect("<"));
  IPSA_ASSIGN_OR_RETURN(uint32_t width, ExpectWidth());
  IPSA_RETURN_IF_ERROR(cur_.Expect(">"));
  return width;
}

Result<Rp4FieldDecl> ActionParser::ParseFieldDecl() {
  Rp4FieldDecl field;
  IPSA_ASSIGN_OR_RETURN(field.width_bits, ParseBitType());
  IPSA_ASSIGN_OR_RETURN(field.name, cur_.ExpectIdent());
  IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
  return field;
}

Result<Rp4VarSizeDecl> ActionParser::ParseVarSize() {
  cur_.Next();  // varsize
  IPSA_RETURN_IF_ERROR(cur_.Expect("("));
  Rp4VarSizeDecl vs;
  IPSA_ASSIGN_OR_RETURN(vs.len_field, cur_.ExpectIdent());
  IPSA_RETURN_IF_ERROR(cur_.Expect(","));
  IPSA_ASSIGN_OR_RETURN(uint64_t add, cur_.ExpectNumber());
  vs.add = static_cast<uint32_t>(add);
  IPSA_RETURN_IF_ERROR(cur_.Expect(","));
  IPSA_ASSIGN_OR_RETURN(uint64_t mult, cur_.ExpectNumber());
  vs.multiplier = static_cast<uint32_t>(mult);
  IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
  IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
  return vs;
}

Result<Rp4RegisterDecl> ActionParser::ParseRegister() {
  cur_.Next();  // register
  Rp4RegisterDecl reg;
  if (cur_.TryConsume("<")) {
    IPSA_RETURN_IF_ERROR(cur_.Expect("bit"));
    IPSA_RETURN_IF_ERROR(cur_.Expect("<"));
    IPSA_ASSIGN_OR_RETURN(reg.width_bits, ExpectWidth());
    // The closing brackets lex as one ">>" token.
    if (!cur_.TryConsume(">>")) {
      IPSA_RETURN_IF_ERROR(cur_.Expect(">"));
      IPSA_RETURN_IF_ERROR(cur_.Expect(">"));
    }
  }
  IPSA_ASSIGN_OR_RETURN(reg.name, cur_.ExpectIdent());
  IPSA_RETURN_IF_ERROR(cur_.Expect("["));
  IPSA_ASSIGN_OR_RETURN(uint64_t size, cur_.ExpectNumber());
  reg.size = static_cast<uint32_t>(size);
  IPSA_RETURN_IF_ERROR(cur_.Expect("]"));
  IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
  register_names_.insert(reg.name);
  return reg;
}

Result<ActionDef> ActionParser::ParseAction() {
  cur_.Next();  // action
  ActionDef def;
  IPSA_ASSIGN_OR_RETURN(def.name, cur_.ExpectIdent());
  IPSA_RETURN_IF_ERROR(cur_.Expect("("));
  param_names_.clear();
  if (!cur_.TryConsume(")")) {
    while (true) {
      IPSA_ASSIGN_OR_RETURN(uint32_t width, ParseBitType());
      IPSA_ASSIGN_OR_RETURN(std::string name, cur_.ExpectIdent());
      param_names_.insert(name);
      def.params.push_back(ActionParam{std::move(name), width});
      if (cur_.TryConsume(")")) break;
      IPSA_RETURN_IF_ERROR(cur_.Expect(","));
    }
  }
  IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
  IPSA_ASSIGN_OR_RETURN(def.body, ParseStatements());
  param_names_.clear();
  return def;
}

Result<Rp4TableDecl> ActionParser::ParseTable() {
  cur_.Next();  // table
  Rp4TableDecl table;
  IPSA_ASSIGN_OR_RETURN(table.name, cur_.ExpectIdent());
  IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
  while (!cur_.TryConsume("}")) {
    if (cur_.TryConsume("key")) {
      IPSA_RETURN_IF_ERROR(cur_.Expect("="));
      IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
      while (!cur_.TryConsume("}")) {
        Rp4KeyField kf;
        IPSA_ASSIGN_OR_RETURN(kf.field, ParseFieldRef());
        IPSA_RETURN_IF_ERROR(cur_.Expect(":"));
        IPSA_ASSIGN_OR_RETURN(kf.match_type, cur_.ExpectIdent());
        IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
        table.key.push_back(std::move(kf));
      }
      cur_.TryConsume(";");
    } else if (cur_.TryConsume("size")) {
      IPSA_RETURN_IF_ERROR(cur_.Expect("="));
      IPSA_ASSIGN_OR_RETURN(uint64_t size, cur_.ExpectNumber());
      table.size = static_cast<uint32_t>(size);
      IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
    } else if (cur_.TryConsume("actions")) {
      IPSA_RETURN_IF_ERROR(cur_.Expect("="));
      IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
      while (!cur_.TryConsume("}")) {
        IPSA_ASSIGN_OR_RETURN(std::string name, cur_.ExpectIdent());
        table.actions.push_back(std::move(name));
        cur_.TryConsume(";");
        cur_.TryConsume(",");
      }
      cur_.TryConsume(";");
    } else if (cur_.TryConsume("default_action")) {
      IPSA_RETURN_IF_ERROR(cur_.Expect("="));
      IPSA_ASSIGN_OR_RETURN(table.default_action, cur_.ExpectIdent());
      IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
    } else {
      return cur_.ErrorHere("unexpected token in table body");
    }
  }
  return table;
}

// --- statements --------------------------------------------------------------

Result<std::vector<ActionOp>> ActionParser::ParseStatements() {
  std::vector<ActionOp> ops;
  while (!cur_.TryConsume("}")) {
    IPSA_ASSIGN_OR_RETURN(ActionOp op, ParseStatement());
    ops.push_back(std::move(op));
  }
  return ops;
}

Result<ActionOp> ActionParser::ParseStatement() {
  if (stmt_depth_ >= kMaxNesting) {
    return cur_.ErrorHere("statement nesting too deep");
  }
  NestingGuard guard(stmt_depth_);
  const Token& t = cur_.Peek();
  if (t.IsIdent("if")) {
    cur_.Next();
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    IPSA_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
    IPSA_ASSIGN_OR_RETURN(std::vector<ActionOp> then_ops, ParseStatements());
    std::vector<ActionOp> else_ops;
    if (cur_.TryConsume("else")) {
      IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
      IPSA_ASSIGN_OR_RETURN(else_ops, ParseStatements());
    }
    return ActionOp::If(std::move(cond), std::move(then_ops),
                        std::move(else_ops));
  }
  if (t.IsIdent("drop") || t.IsIdent("mark_to_drop")) {
    cur_.Next();
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    cur_.TryConsume("standard_metadata");  // mark_to_drop(standard_metadata)
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
    return ActionOp::Drop();
  }
  if (t.IsIdent("mark") || t.IsIdent("no_op") || t.IsIdent("NoAction")) {
    bool mark = t.IsIdent("mark");
    cur_.Next();
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
    return mark ? ActionOp::Mark() : ActionOp::Noop();
  }
  if (t.IsIdent("forward")) {
    cur_.Next();
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    IPSA_ASSIGN_OR_RETURN(ExprPtr port, ParseExpr());
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
    return ActionOp::Forward(std::move(port));
  }
  if (t.IsIdent("push_header")) {
    cur_.Next();
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    IPSA_ASSIGN_OR_RETURN(std::string header, ParseInstanceName());
    std::string after;
    ExprPtr size;
    if (cur_.TryConsume(",")) {
      IPSA_ASSIGN_OR_RETURN(after, ParseInstanceName());
      if (cur_.TryConsume(",")) {
        IPSA_ASSIGN_OR_RETURN(size, ParseExpr());
      }
    }
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
    return ActionOp::PushHeader(std::move(header), std::move(after),
                                std::move(size));
  }
  if (t.IsIdent("pop_header")) {
    cur_.Next();
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    IPSA_ASSIGN_OR_RETURN(std::string header, ParseInstanceName());
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
    return ActionOp::PopHeader(std::move(header));
  }
  if (t.IsIdent("update_checksum")) {
    cur_.Next();
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    IPSA_ASSIGN_OR_RETURN(std::string instance, ParseInstanceName());
    std::string field = "hdr_checksum";
    if (cur_.TryConsume(",")) {
      IPSA_ASSIGN_OR_RETURN(field, cur_.ExpectIdent());
    }
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
    return ActionOp::UpdateChecksum(std::move(instance), std::move(field));
  }
  if (t.IsIdent("set_raw")) {
    cur_.Next();
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    IPSA_ASSIGN_OR_RETURN(std::string instance, ParseInstanceName());
    IPSA_RETURN_IF_ERROR(cur_.Expect(","));
    IPSA_ASSIGN_OR_RETURN(ExprPtr offset, ParseExpr());
    IPSA_RETURN_IF_ERROR(cur_.Expect(","));
    IPSA_ASSIGN_OR_RETURN(uint32_t width, ExpectWidth());
    IPSA_RETURN_IF_ERROR(cur_.Expect(","));
    IPSA_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
    return ActionOp::AssignRaw(std::move(instance), std::move(offset), width,
                               std::move(value));
  }
  // Assignment: `<field> = expr;` or `reg[index] = expr;`.
  if (t.kind == TokKind::kIdent) {
    IPSA_ASSIGN_OR_RETURN(std::string first, cur_.ExpectIdent());
    if (cur_.TryConsume("[")) {
      if (register_names_.count(first) == 0) {
        return cur_.ErrorHere("'" + first + "' is not a register");
      }
      IPSA_ASSIGN_OR_RETURN(ExprPtr index, ParseExpr());
      IPSA_RETURN_IF_ERROR(cur_.Expect("]"));
      IPSA_RETURN_IF_ERROR(cur_.Expect("="));
      IPSA_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
      return ActionOp::RegWrite(std::move(first), std::move(index),
                                std::move(value));
    }
    IPSA_ASSIGN_OR_RETURN(FieldRef dest, FinishFieldRef(first));
    IPSA_RETURN_IF_ERROR(cur_.Expect("="));
    IPSA_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
    IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
    return ActionOp::Assign(std::move(dest), std::move(value));
  }
  return cur_.ErrorHere("expected statement");
}

// --- names -------------------------------------------------------------------

Result<std::string> ActionParser::ParseInstanceName() {
  IPSA_ASSIGN_OR_RETURN(std::string first, cur_.ExpectIdent());
  if (!IsHeaderPrefix(first)) return first;
  IPSA_RETURN_IF_ERROR(cur_.Expect("."));
  return cur_.ExpectIdent();
}

Result<FieldRef> ActionParser::FinishFieldRef(const std::string& first) {
  IPSA_RETURN_IF_ERROR(cur_.Expect("."));
  IPSA_ASSIGN_OR_RETURN(std::string second, cur_.ExpectIdent());
  if (IsMetadataScope(first)) return FieldRef::Meta(std::move(second));
  if (!IsHeaderPrefix(first)) return FieldRef::Header(first, std::move(second));
  IPSA_RETURN_IF_ERROR(cur_.Expect("."));
  IPSA_ASSIGN_OR_RETURN(std::string field, cur_.ExpectIdent());
  return FieldRef::Header(std::move(second), std::move(field));
}

Result<FieldRef> ActionParser::ParseFieldRef() {
  IPSA_ASSIGN_OR_RETURN(std::string first, cur_.ExpectIdent());
  return FinishFieldRef(first);
}

// --- expressions -------------------------------------------------------------

Result<ExprPtr> ActionParser::ParseExpr() {
  if (expr_depth_ >= kMaxNesting) {
    return cur_.ErrorHere("expression nesting too deep");
  }
  NestingGuard guard(expr_depth_);
  return ParseBinary(0);
}

namespace {

struct Level {
  std::string_view token;
  Expr::Op op;
};

// Binary operator levels from loosest to tightest binding.
const std::vector<std::vector<Level>>& BinaryLevels() {
  static const std::vector<std::vector<Level>> kLevels = {
      {{"||", Expr::Op::kOr}},
      {{"&&", Expr::Op::kAnd}},
      {{"|", Expr::Op::kBitOr}},
      {{"^", Expr::Op::kBitXor}},
      {{"&", Expr::Op::kBitAnd}},
      {{"==", Expr::Op::kEq}, {"!=", Expr::Op::kNe}},
      {{"<", Expr::Op::kLt},
       {"<=", Expr::Op::kLe},
       {">", Expr::Op::kGt},
       {">=", Expr::Op::kGe}},
      {{"<<", Expr::Op::kShl}, {">>", Expr::Op::kShr}},
      {{"+", Expr::Op::kAdd}, {"-", Expr::Op::kSub}},
      {{"*", Expr::Op::kMul}},
  };
  return kLevels;
}

}  // namespace

Result<ExprPtr> ActionParser::ParseBinary(int level) {
  const auto& levels = BinaryLevels();
  if (level >= static_cast<int>(levels.size())) return ParseUnary();
  IPSA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseBinary(level + 1));
  while (true) {
    bool matched = false;
    for (const Level& l : levels[static_cast<size_t>(level)]) {
      if (cur_.Peek().kind == TokKind::kPunct && cur_.Peek().Is(l.token)) {
        cur_.Next();
        IPSA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseBinary(level + 1));
        lhs = Expr::Binary(l.op, std::move(lhs), std::move(rhs));
        matched = true;
        break;
      }
    }
    if (!matched) break;
  }
  return lhs;
}

Result<ExprPtr> ActionParser::ParseUnary() {
  if (cur_.TryConsume("!")) {
    IPSA_ASSIGN_OR_RETURN(ExprPtr a, ParseUnary());
    return Expr::Unary(Expr::Op::kNot, std::move(a));
  }
  if (cur_.TryConsume("~")) {
    IPSA_ASSIGN_OR_RETURN(ExprPtr a, ParseUnary());
    return Expr::Unary(Expr::Op::kBitNot, std::move(a));
  }
  return ParsePrimary();
}

Result<ExprPtr> ActionParser::ParsePrimary() {
  const Token& t = cur_.Peek();
  if (t.kind == TokKind::kNumber) {
    cur_.Next();
    return Expr::ConstU(t.number);
  }
  if (cur_.TryConsume("(")) {
    IPSA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    return e;
  }
  if (t.kind != TokKind::kIdent) {
    return cur_.ErrorHere("expected expression");
  }
  IPSA_ASSIGN_OR_RETURN(std::string first, cur_.ExpectIdent());
  if (first == "true") return Expr::ConstU(1, 1);
  if (first == "false") return Expr::ConstU(0, 1);
  if (first == "get_raw") {
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    IPSA_ASSIGN_OR_RETURN(std::string instance, ParseInstanceName());
    IPSA_RETURN_IF_ERROR(cur_.Expect(","));
    IPSA_ASSIGN_OR_RETURN(ExprPtr offset, ParseExpr());
    IPSA_RETURN_IF_ERROR(cur_.Expect(","));
    IPSA_ASSIGN_OR_RETURN(uint32_t width, ExpectWidth());
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    return Expr::Raw(std::move(instance), std::move(offset), width);
  }
  if (first == "sat_add" || first == "fxp_quantize" ||
      first == "fxp_dequantize") {
    Expr::Op op = first == "sat_add"        ? Expr::Op::kSatAdd
                  : first == "fxp_quantize" ? Expr::Op::kFxpQuantize
                                            : Expr::Op::kFxpDequantize;
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    IPSA_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
    IPSA_RETURN_IF_ERROR(cur_.Expect(","));
    IPSA_ASSIGN_OR_RETURN(ExprPtr b, ParseExpr());
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    return Expr::Binary(op, std::move(a), std::move(b));
  }
  if (cur_.Peek().Is(".")) {
    IPSA_ASSIGN_OR_RETURN(FieldRef ref, FinishFieldRef(first));
    if (ref.field != "isValid") return Expr::Field(std::move(ref));
    // `<instance>.isValid()`; a metadata scope names itself.
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    return Expr::IsValid(ref.space == FieldRef::Space::kHeader
                             ? std::move(ref.instance)
                             : std::move(first));
  }
  if (cur_.TryConsume("[")) {
    if (register_names_.count(first) == 0) {
      return cur_.ErrorHere("'" + first + "' is not a register");
    }
    IPSA_ASSIGN_OR_RETURN(ExprPtr index, ParseExpr());
    IPSA_RETURN_IF_ERROR(cur_.Expect("]"));
    return Expr::Register(std::move(first), std::move(index));
  }
  if (param_names_.count(first) > 0) {
    return Expr::Param(std::move(first));
  }
  return cur_.ErrorHere("unknown identifier '" + first + "' in expression");
}

}  // namespace ipsa::rp4
