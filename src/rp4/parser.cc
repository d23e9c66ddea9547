#include "rp4/parser.h"

#include "rp4/action_parser.h"

namespace ipsa::rp4 {

namespace {

using arch::ExprPtr;
using arch::MatchRule;
using arch::StageProgram;

// The rP4 front end: the headers/structs sections, stages and user_funcs are
// its own; fields, actions, tables, registers, statements and expressions
// come from the shared grammar. Header instances have no prefix, and every
// struct alias joins `meta` as a metadata scope.
class Parser : public ActionParser {
 public:
  explicit Parser(std::vector<Token> tokens)
      : ActionParser(std::move(tokens), "", {"meta"}) {}

  Result<Rp4Program> ParseProgram(bool snippet) {
    while (!cur_.AtEnd()) {
      const Token& t = cur_.Peek();
      if (t.IsIdent("headers")) {
        IPSA_RETURN_IF_ERROR(ParseHeadersSection());
      } else if (t.IsIdent("structs")) {
        IPSA_RETURN_IF_ERROR(ParseStructsSection());
      } else if (t.IsIdent("header")) {
        // Bare header decl (snippet form).
        cur_.Next();
        IPSA_RETURN_IF_ERROR(ParseHeader());
      } else if (t.IsIdent("register")) {
        IPSA_ASSIGN_OR_RETURN(Rp4RegisterDecl reg, ParseRegister());
        prog_.registers.push_back(std::move(reg));
      } else if (t.IsIdent("action")) {
        IPSA_ASSIGN_OR_RETURN(arch::ActionDef action, ParseAction());
        prog_.actions.push_back(std::move(action));
      } else if (t.IsIdent("table")) {
        IPSA_ASSIGN_OR_RETURN(Rp4TableDecl table, ParseTable());
        prog_.tables.push_back(std::move(table));
      } else if (t.IsIdent("control")) {
        IPSA_RETURN_IF_ERROR(ParseControl());
      } else if (t.IsIdent("stage")) {
        if (!snippet) {
          return cur_.ErrorHere(
              "bare 'stage' only allowed in snippets; wrap in a control");
        }
        cur_.Next();
        IPSA_ASSIGN_OR_RETURN(StageProgram stage, ParseStage());
        prog_.ingress_stages.push_back(std::move(stage));
      } else if (t.IsIdent("user_funcs")) {
        IPSA_RETURN_IF_ERROR(ParseUserFuncs());
      } else if (t.IsIdent("entry_header")) {
        cur_.Next();
        IPSA_RETURN_IF_ERROR(cur_.Expect("="));
        IPSA_ASSIGN_OR_RETURN(prog_.entry_header, cur_.ExpectIdent());
        IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
      } else {
        return cur_.ErrorHere("unexpected top-level token");
      }
    }
    return std::move(prog_);
  }

 private:
  Status ParseHeadersSection() {
    cur_.Next();  // headers
    IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
    while (!cur_.TryConsume("}")) {
      IPSA_RETURN_IF_ERROR(cur_.Expect("header"));
      IPSA_RETURN_IF_ERROR(ParseHeader());
    }
    return OkStatus();
  }

  // 'header' already consumed.
  Status ParseHeader() {
    Rp4HeaderDecl header;
    IPSA_ASSIGN_OR_RETURN(header.name, cur_.ExpectIdent());
    IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
    while (!cur_.TryConsume("}")) {
      if (cur_.Peek().IsIdent("bit")) {
        IPSA_ASSIGN_OR_RETURN(Rp4FieldDecl field, ParseFieldDecl());
        header.fields.push_back(std::move(field));
      } else if (cur_.Peek().IsIdent("varsize")) {
        IPSA_ASSIGN_OR_RETURN(header.varsize, ParseVarSize());
      } else if (cur_.Peek().IsIdent("implicit")) {
        cur_.Next();
        IPSA_RETURN_IF_ERROR(cur_.Expect("parser"));
        IPSA_RETURN_IF_ERROR(cur_.Expect("("));
        Rp4ParserDecl parser;
        IPSA_ASSIGN_OR_RETURN(parser.selector_field, cur_.ExpectIdent());
        IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
        IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
        while (!cur_.TryConsume("}")) {
          IPSA_ASSIGN_OR_RETURN(uint64_t tag, cur_.ExpectNumber());
          IPSA_RETURN_IF_ERROR(cur_.Expect(":"));
          IPSA_ASSIGN_OR_RETURN(std::string next, cur_.ExpectIdent());
          IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
          parser.links.emplace_back(tag, std::move(next));
        }
        header.parser = std::move(parser);
      } else {
        return cur_.ErrorHere("expected field, varsize, or implicit parser");
      }
    }
    prog_.headers.push_back(std::move(header));
    return OkStatus();
  }

  Status ParseStructsSection() {
    cur_.Next();  // structs
    IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
    while (!cur_.TryConsume("}")) {
      IPSA_RETURN_IF_ERROR(cur_.Expect("struct"));
      Rp4StructDecl s;
      IPSA_ASSIGN_OR_RETURN(s.name, cur_.ExpectIdent());
      IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
      while (!cur_.TryConsume("}")) {
        IPSA_ASSIGN_OR_RETURN(Rp4FieldDecl field, ParseFieldDecl());
        s.members.push_back(std::move(field));
      }
      if (cur_.Peek().kind == TokKind::kIdent) {
        IPSA_ASSIGN_OR_RETURN(s.alias, cur_.ExpectIdent());
        AddMetadataScope(s.alias);
      }
      IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
      prog_.structs.push_back(std::move(s));
    }
    return OkStatus();
  }

  Status ParseControl() {
    cur_.Next();  // control
    IPSA_ASSIGN_OR_RETURN(std::string which, cur_.ExpectIdent());
    bool ingress;
    if (which == "rP4_Ingress") {
      ingress = true;
    } else if (which == "rP4_Egress") {
      ingress = false;
    } else {
      return cur_.ErrorHere("control must be rP4_Ingress or rP4_Egress");
    }
    IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
    while (!cur_.TryConsume("}")) {
      IPSA_RETURN_IF_ERROR(cur_.Expect("stage"));
      IPSA_ASSIGN_OR_RETURN(StageProgram stage, ParseStage());
      if (ingress) {
        prog_.ingress_stages.push_back(std::move(stage));
      } else {
        prog_.egress_stages.push_back(std::move(stage));
      }
    }
    return OkStatus();
  }

  // 'stage' already consumed.
  Result<StageProgram> ParseStage() {
    StageProgram stage;
    IPSA_ASSIGN_OR_RETURN(stage.name, cur_.ExpectIdent());
    IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
    while (!cur_.TryConsume("}")) {
      if (cur_.TryConsume("parser")) {
        IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
        while (!cur_.TryConsume("}")) {
          IPSA_ASSIGN_OR_RETURN(std::string name, cur_.ExpectIdent());
          stage.parse_set.push_back(std::move(name));
          cur_.TryConsume(";");
          cur_.TryConsume(",");
        }
        cur_.TryConsume(";");
      } else if (cur_.TryConsume("matcher")) {
        IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
        IPSA_ASSIGN_OR_RETURN(stage.matcher, ParseMatcher());
        cur_.TryConsume(";");
      } else if (cur_.TryConsume("executor")) {
        IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
        while (!cur_.TryConsume("}")) {
          if (cur_.TryConsume("default")) {
            IPSA_RETURN_IF_ERROR(cur_.Expect(":"));
            IPSA_ASSIGN_OR_RETURN(stage.miss_action, cur_.ExpectIdent());
            IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
          } else {
            IPSA_ASSIGN_OR_RETURN(uint64_t tag, cur_.ExpectNumber());
            IPSA_RETURN_IF_ERROR(cur_.Expect(":"));
            IPSA_ASSIGN_OR_RETURN(std::string action, cur_.ExpectIdent());
            IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
            stage.executor[static_cast<uint32_t>(tag)] = std::move(action);
          }
        }
        cur_.TryConsume(";");
      } else {
        return cur_.ErrorHere("expected parser, matcher, or executor");
      }
    }
    return stage;
  }

  // Matcher body: an if / else-if / else chain (or one unconditional apply),
  // closed by '}'.
  Result<std::vector<MatchRule>> ParseMatcher() {
    std::vector<MatchRule> rules;
    if (cur_.TryConsume("}")) return rules;
    if (!cur_.Peek().IsIdent("if")) {
      // Unconditional:  <table>.apply();
      IPSA_ASSIGN_OR_RETURN(MatchRule rule, ParseApply(nullptr));
      rules.push_back(std::move(rule));
      IPSA_RETURN_IF_ERROR(cur_.Expect("}"));
      return rules;
    }
    bool expect_more = true;
    while (expect_more) {
      IPSA_RETURN_IF_ERROR(cur_.Expect("if"));
      IPSA_RETURN_IF_ERROR(cur_.Expect("("));
      IPSA_ASSIGN_OR_RETURN(ExprPtr guard, ParseExpr());
      IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
      IPSA_ASSIGN_OR_RETURN(MatchRule rule, ParseApply(std::move(guard)));
      rules.push_back(std::move(rule));
      expect_more = false;
      if (cur_.TryConsume("else")) {
        if (cur_.TryConsume(";")) {
          // `else;` — explicit no-table fallthrough.
          rules.push_back(MatchRule{nullptr, ""});
        } else if (cur_.Peek().IsIdent("if")) {
          expect_more = true;
        } else {
          IPSA_ASSIGN_OR_RETURN(MatchRule rule2, ParseApply(nullptr));
          rules.push_back(std::move(rule2));
        }
      }
    }
    IPSA_RETURN_IF_ERROR(cur_.Expect("}"));
    return rules;
  }

  Result<MatchRule> ParseApply(ExprPtr guard) {
    IPSA_ASSIGN_OR_RETURN(std::string table, cur_.ExpectIdent());
    IPSA_RETURN_IF_ERROR(cur_.Expect("."));
    IPSA_RETURN_IF_ERROR(cur_.Expect("apply"));
    IPSA_RETURN_IF_ERROR(cur_.Expect("("));
    IPSA_RETURN_IF_ERROR(cur_.Expect(")"));
    IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
    return MatchRule{std::move(guard), std::move(table)};
  }

  Status ParseUserFuncs() {
    cur_.Next();  // user_funcs
    IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
    while (!cur_.TryConsume("}")) {
      if (cur_.TryConsume("func")) {
        Rp4FuncDecl func;
        IPSA_ASSIGN_OR_RETURN(func.name, cur_.ExpectIdent());
        IPSA_RETURN_IF_ERROR(cur_.Expect("{"));
        while (!cur_.TryConsume("}")) {
          IPSA_ASSIGN_OR_RETURN(std::string stage, cur_.ExpectIdent());
          func.stages.push_back(std::move(stage));
          cur_.TryConsume(";");
          cur_.TryConsume(",");
        }
        prog_.funcs.push_back(std::move(func));
      } else if (cur_.TryConsume("ingress_entry")) {
        IPSA_RETURN_IF_ERROR(cur_.Expect(":"));
        IPSA_ASSIGN_OR_RETURN(prog_.ingress_entry, cur_.ExpectIdent());
        IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
      } else if (cur_.TryConsume("egress_entry")) {
        IPSA_RETURN_IF_ERROR(cur_.Expect(":"));
        IPSA_ASSIGN_OR_RETURN(prog_.egress_entry, cur_.ExpectIdent());
        IPSA_RETURN_IF_ERROR(cur_.Expect(";"));
      } else {
        return cur_.ErrorHere("expected func / ingress_entry / egress_entry");
      }
    }
    return OkStatus();
  }

  Rp4Program prog_;
};

}  // namespace

Result<Rp4Program> ParseRp4(std::string_view source) {
  IPSA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseProgram(false);
}

Result<Rp4Program> ParseRp4Snippet(std::string_view source) {
  IPSA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseProgram(true);
}

}  // namespace ipsa::rp4
