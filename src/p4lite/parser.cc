#include "p4lite/parser.h"

#include <optional>

#include "rp4/action_parser.h"

namespace ipsa::p4lite {

namespace {

using arch::ActionDef;
using rp4::Rp4FieldDecl;
using rp4::Token;

// The P4 front end: the parser state machine, control apply trees and
// structs are its own; fields, actions, tables, registers, statements and
// expressions come from the shared rP4 grammar in the P4 dialect.
class Parser : public rp4::ActionParser {
 public:
  explicit Parser(std::vector<Token> tokens)
      : ActionParser(std::move(tokens), "hdr",
                     {"meta", "standard_metadata"}) {}

  Result<Hlir> ParseProgram() {
    while (!cur_.AtEnd()) {
      const Token& t = cur_.Peek();
      if (t.IsIdent("header")) {
        IPSA_RETURN_IF_ERROR(ParseHeaderType());
      } else if (t.IsIdent("struct")) {
        IPSA_RETURN_IF_ERROR(ParseStruct());
      } else if (t.IsIdent("register")) {
        IPSA_ASSIGN_OR_RETURN(rp4::Rp4RegisterDecl reg, ParseRegister());
        hlir_.registers.push_back(std::move(reg));
      } else if (t.IsIdent("parser")) {
        IPSA_RETURN_IF_ERROR(ParseParser());
      } else if (t.IsIdent("control")) {
        IPSA_RETURN_IF_ERROR(ParseControl());
      } else {
        return cur_.ErrorHere("unexpected top-level token");
      }
    }
    return std::move(hlir_);
  }

 private:
  Status ParseHeaderType() {
    cur_.Next();  // header
    IPSA_ASSIGN_OR_RETURN(std::string name, cur_.ExpectIdent());
    IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
    std::vector<arch::FieldDef> fields;
    std::optional<arch::VarSizeRule> varsize;
    while (!cur_.TryConsume("}")) {
      if (cur_.Peek().IsIdent("varsize")) {
        IPSA_ASSIGN_OR_RETURN(rp4::Rp4VarSizeDecl vs, ParseVarSize());
        varsize = arch::VarSizeRule{vs.len_field, vs.add, vs.multiplier};
        continue;
      }
      IPSA_ASSIGN_OR_RETURN(Rp4FieldDecl field, ParseFieldDecl());
      fields.push_back(arch::FieldDef{field.name, field.width_bits});
    }
    arch::HeaderTypeDef def(name, std::move(fields));
    if (varsize.has_value()) def.SetVarSize(*varsize);
    hlir_.header_types.push_back(std::move(def));
    return OkStatus();
  }

  Status ParseStruct() {
    cur_.Next();  // struct
    IPSA_ASSIGN_OR_RETURN(std::string name, cur_.ExpectIdent());
    IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
    bool is_headers = name == "headers_t" || name == "headers";
    while (!cur_.TryConsume("}")) {
      if (cur_.Peek().IsIdent("bit")) {
        // metadata member
        IPSA_ASSIGN_OR_RETURN(Rp4FieldDecl field, ParseFieldDecl());
        if (!is_headers) {
          hlir_.metadata.emplace_back(field.name, field.width_bits);
        }
      } else {
        // header instance: <type> <instance>;
        IPSA_ASSIGN_OR_RETURN(std::string type, cur_.ExpectIdent());
        IPSA_ASSIGN_OR_RETURN(std::string inst, cur_.ExpectIdent());
        IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
        if (is_headers) {
          hlir_.header_instances.emplace_back(inst, type);
        }
      }
    }
    cur_.TryConsume(";");
    return OkStatus();
  }

  Status SkipParamList() {
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    int depth = 1;
    while (depth > 0) {
      if (cur_.AtEnd()) return cur_.ErrorHere("unterminated parameter list");
      const Token& t = cur_.Next();
      if (t.Is("(")) ++depth;
      if (t.Is(")")) --depth;
    }
    return OkStatus();
  }

  Status ParseParser() {
    cur_.Next();  // parser
    IPSA_ASSIGN_OR_RETURN(std::string name, cur_.ExpectIdent());
    (void)name;
    IPSA_RETURN_IF_ERROR(SkipParamList());
    IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
    while (!cur_.TryConsume("}")) {
      IPSA_RETURN_IF_ERROR(cur_.Expect("state"));
      HlirParseState state;
      IPSA_ASSIGN_OR_RETURN(state.name, cur_.ExpectIdent());
      IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
      while (!cur_.TryConsume("}")) {
        if (cur_.TryConsume("transition")) {
          if (cur_.TryConsume("select")) {
            IPSA_RETURN_IF_ERROR(cur_.Expect("("));
            // hdr.<instance>.<field>
            IPSA_RETURN_IF_ERROR(cur_.Expect("hdr"));
            IPSA_RETURN_IF_ERROR(cur_.Expect("."));
            IPSA_ASSIGN_OR_RETURN(state.select_instance, cur_.ExpectIdent());
            IPSA_RETURN_IF_ERROR(cur_.Expect("."));
            IPSA_ASSIGN_OR_RETURN(state.select_field, cur_.ExpectIdent());
            IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
            IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
            while (!cur_.TryConsume("}")) {
              if (cur_.TryConsume("default")) {
                IPSA_RETURN_IF_ERROR(cur_.Expect(":"));
                IPSA_ASSIGN_OR_RETURN(state.default_transition,
                                      cur_.ExpectIdent());
                IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
              } else {
                IPSA_ASSIGN_OR_RETURN(uint64_t tag, cur_.ExpectNumber());
                IPSA_RETURN_IF_ERROR(cur_.Expect(":"));
                IPSA_ASSIGN_OR_RETURN(std::string target, cur_.ExpectIdent());
                IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
                state.transitions.emplace_back(tag, std::move(target));
              }
            }
          } else {
            IPSA_ASSIGN_OR_RETURN(state.default_transition,
                                  cur_.ExpectIdent());
            IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
          }
        } else if (cur_.TryConsume("pkt")) {
          IPSA_RETURN_IF_ERROR(cur_.Expect("."));
          IPSA_RETURN_IF_ERROR(cur_.Expect("extract"));
          IPSA_RETURN_IF_ERROR(cur_.Expect("("));
          IPSA_RETURN_IF_ERROR(cur_.Expect("hdr"));
          IPSA_RETURN_IF_ERROR(cur_.Expect("."));
          IPSA_ASSIGN_OR_RETURN(std::string inst, cur_.ExpectIdent());
          IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
          IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
          state.extracts.push_back(std::move(inst));
        } else {
          return cur_.ErrorHere("expected extract or transition");
        }
      }
      hlir_.parse_states.push_back(std::move(state));
    }
    return OkStatus();
  }

  Status ParseControl() {
    cur_.Next();  // control
    HlirControl control;
    IPSA_ASSIGN_OR_RETURN(control.name, cur_.ExpectIdent());
    IPSA_RETURN_IF_ERROR(SkipParamList());
    IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
    while (!cur_.TryConsume("}")) {
      const Token& t = cur_.Peek();
      if (t.IsIdent("action")) {
        IPSA_ASSIGN_OR_RETURN(ActionDef def, ParseAction());
        control.actions.push_back(std::move(def));
      } else if (t.IsIdent("table")) {
        IPSA_ASSIGN_OR_RETURN(rp4::Rp4TableDecl table, ParseTable());
        control.tables.push_back(std::move(table));
      } else if (t.IsIdent("apply")) {
        cur_.Next();
        IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
        IPSA_ASSIGN_OR_RETURN(control.apply.children, ParseApplyBlock());
        control.apply.kind = HlirApplyNode::Kind::kSeq;
      } else {
        return cur_.ErrorHere("expected action, table, or apply");
      }
    }
    if (!have_ingress_) {
      hlir_.ingress = std::move(control);
      have_ingress_ = true;
    } else {
      hlir_.egress = std::move(control);
    }
    return OkStatus();
  }

  Result<std::vector<HlirApplyNode>> ParseApplyBlock() {
    std::vector<HlirApplyNode> nodes;
    while (!cur_.TryConsume("}")) {
      IPSA_ASSIGN_OR_RETURN(HlirApplyNode node, ParseApplyStatement());
      nodes.push_back(std::move(node));
    }
    return nodes;
  }

  Result<HlirApplyNode> ParseApplyStatement() {
    if (stmt_depth_ >= kMaxNesting) {
      return cur_.ErrorHere("apply-block nesting too deep");
    }
    NestingGuard guard(stmt_depth_);
    if (cur_.TryConsume("if")) {
      HlirApplyNode node;
      node.kind = HlirApplyNode::Kind::kIf;
      IPSA_RETURN_IF_ERROR(cur_.Expect("("));
      IPSA_ASSIGN_OR_RETURN(node.cond, ParseExpr());
      IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
      IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
      IPSA_ASSIGN_OR_RETURN(node.children, ParseApplyBlock());
      if (cur_.TryConsume("else")) {
        if (cur_.TryConsume("if")) {
          // Desugar `else if` into else { if ... }.
          HlirApplyNode nested;
          nested.kind = HlirApplyNode::Kind::kIf;
          IPSA_RETURN_IF_ERROR(cur_.Expect("("));
          IPSA_ASSIGN_OR_RETURN(nested.cond, ParseExpr());
          IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
          IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
          IPSA_ASSIGN_OR_RETURN(nested.children, ParseApplyBlock());
          if (cur_.TryConsume("else")) {
            IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
            IPSA_ASSIGN_OR_RETURN(nested.else_children, ParseApplyBlock());
          }
          node.else_children.push_back(std::move(nested));
        } else {
          IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
          IPSA_ASSIGN_OR_RETURN(node.else_children, ParseApplyBlock());
        }
      }
      return node;
    }
    // <table>.apply();
    HlirApplyNode node;
    node.kind = HlirApplyNode::Kind::kApply;
    IPSA_ASSIGN_OR_RETURN(node.table, cur_.ExpectIdent());
    IPSA_RETURN_IF_ERROR(cur_.Expect("."));
    IPSA_RETURN_IF_ERROR(cur_.Expect("apply"));
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
    return node;
  }

  Hlir hlir_;
  bool have_ingress_ = false;
};

}  // namespace

Result<Hlir> ParseP4(std::string_view source) {
  IPSA_ASSIGN_OR_RETURN(std::vector<Token> tokens, rp4::Tokenize(source));
  return Parser(std::move(tokens)).ParseProgram();
}

}  // namespace ipsa::p4lite
