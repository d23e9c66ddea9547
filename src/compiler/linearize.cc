#include "compiler/linearize.h"

#include <algorithm>
#include <set>

namespace ipsa::compiler {

namespace {

using arch::ActionDef;
using arch::ActionOp;
using arch::Expr;
using arch::ExprPtr;
using arch::FieldRef;
using arch::MatchRule;
using arch::StageProgram;
using p4lite::HlirApplyNode;
using p4lite::HlirControl;

ExprPtr Conjoin(const ExprPtr& a, const ExprPtr& b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  return Expr::Binary(Expr::Op::kAnd, a, b);
}

const rp4::Rp4TableDecl* FindTable(const HlirControl& control,
                                   std::string_view name) {
  for (const auto& t : control.tables) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

// Assigns executor tags for a stage from the tables it applies.
Status FillExecutor(const HlirControl& control, StageProgram& stage) {
  uint32_t next_tag = 1;
  std::set<std::string> seen;
  for (const MatchRule& rule : stage.matcher) {
    if (rule.table.empty()) continue;
    const rp4::Rp4TableDecl* t = FindTable(control, rule.table);
    if (t == nullptr) {
      return NotFound("apply of unknown table '" + rule.table + "'");
    }
    for (const std::string& action : t->actions) {
      if (action == "NoAction" || !seen.insert(action).second) continue;
      stage.executor[next_tag++] = action;
    }
  }
  return OkStatus();
}

// True if every branch of this if/else chain is a single apply (or empty),
// collecting (guard, table) pairs; such a chain fits one stage's matcher.
bool TryFlattenIfChain(const HlirApplyNode& node, const ExprPtr& path,
                       std::vector<MatchRule>& rules) {
  if (node.kind != HlirApplyNode::Kind::kIf) return false;
  // Then-branch must be a single apply.
  if (node.children.size() != 1 ||
      node.children[0].kind != HlirApplyNode::Kind::kApply) {
    return false;
  }
  rules.push_back(MatchRule{Conjoin(path, node.cond), node.children[0].table});
  if (node.else_children.empty()) {
    return true;
  }
  if (node.else_children.size() == 1) {
    const HlirApplyNode& e = node.else_children[0];
    if (e.kind == HlirApplyNode::Kind::kApply) {
      rules.push_back(MatchRule{path, e.table});  // unconditional else
      return true;
    }
    if (e.kind == HlirApplyNode::Kind::kIf) {
      return TryFlattenIfChain(e, path, rules);
    }
  }
  return false;
}

struct Linearizer {
  const HlirControl& control;
  std::string prefix;
  std::vector<StageProgram> stages;
  uint32_t counter = 0;

  // Stage names follow the first applied table (the names runtime scripts
  // reference, e.g. `add_link ipv4_lpm ecmp`); a numeric suffix
  // disambiguates repeated applies of the same table.
  std::string StageName(const std::string& table) {
    std::string name = table;
    for (const auto& s : stages) {
      if (s.name == name) {
        name = table + "_" + std::to_string(counter);
        break;
      }
    }
    ++counter;
    return name;
  }

  Status Emit(const HlirApplyNode& node, const ExprPtr& path) {
    switch (node.kind) {
      case HlirApplyNode::Kind::kSeq:
        for (const auto& child : node.children) {
          IPSA_RETURN_IF_ERROR(Emit(child, path));
        }
        return OkStatus();
      case HlirApplyNode::Kind::kApply: {
        StageProgram stage;
        stage.name = StageName(node.table);
        stage.matcher.push_back(MatchRule{path, node.table});
        IPSA_RETURN_IF_ERROR(FillExecutor(control, stage));
        stages.push_back(std::move(stage));
        return OkStatus();
      }
      case HlirApplyNode::Kind::kIf: {
        std::vector<MatchRule> rules;
        if (TryFlattenIfChain(node, path, rules)) {
          StageProgram stage;
          stage.name = StageName(rules.front().table);
          stage.matcher = std::move(rules);
          IPSA_RETURN_IF_ERROR(FillExecutor(control, stage));
          stages.push_back(std::move(stage));
          return OkStatus();
        }
        // Deep structure: recurse with conjoined path conditions.
        ExprPtr then_path = Conjoin(path, node.cond);
        for (const auto& child : node.children) {
          IPSA_RETURN_IF_ERROR(Emit(child, then_path));
        }
        if (!node.else_children.empty()) {
          ExprPtr else_path =
              Conjoin(path, Expr::Unary(Expr::Op::kNot, node.cond));
          for (const auto& child : node.else_children) {
            IPSA_RETURN_IF_ERROR(Emit(child, else_path));
          }
        }
        return OkStatus();
      }
    }
    return InternalError("bad apply node kind");
  }
};

void CollectOpHeaderDeps(const ActionOp& op, std::vector<std::string>& out) {
  auto from_expr = [&out](const ExprPtr& e) {
    if (e != nullptr) e->CollectHeaderDeps(out);
  };
  if (op.dest.space == FieldRef::Space::kHeader) {
    out.push_back(op.dest.instance);
  }
  if (!op.instance.empty() && op.kind != ActionOp::Kind::kPushHeader) {
    out.push_back(op.instance);
  }
  from_expr(op.value);
  from_expr(op.raw_offset);
  from_expr(op.index);
  from_expr(op.cond);
  from_expr(op.push_size_bytes);
  for (const auto& o : op.then_ops) CollectOpHeaderDeps(o, out);
  for (const auto& o : op.else_ops) CollectOpHeaderDeps(o, out);
}

void CollectOpWrites(const ActionOp& op, std::vector<FieldRef>& out) {
  if (op.kind == ActionOp::Kind::kAssign) out.push_back(op.dest);
  for (const auto& o : op.then_ops) CollectOpWrites(o, out);
  for (const auto& o : op.else_ops) CollectOpWrites(o, out);
}

}  // namespace

Result<std::vector<StageProgram>> LinearizeControl(
    const HlirControl& control, const std::string& prefix) {
  Linearizer lin{control, prefix, {}, 0};
  IPSA_RETURN_IF_ERROR(lin.Emit(control.apply, nullptr));
  return std::move(lin.stages);
}

void CollectActionHeaderDeps(const ActionDef& action,
                             std::vector<std::string>& out) {
  for (const auto& op : action.body) CollectOpHeaderDeps(op, out);
}

void CollectActionWrites(const ActionDef& action,
                         std::vector<FieldRef>& out) {
  for (const auto& op : action.body) CollectOpWrites(op, out);
}

std::vector<std::string> ComputeParseSet(
    const arch::StageProgram& stage,
    const std::vector<arch::TableDecl>& tables,
    const std::vector<arch::ActionDef>& actions) {
  std::vector<std::string> deps;
  for (const auto& rule : stage.matcher) {
    if (rule.guard != nullptr) rule.guard->CollectHeaderDeps(deps);
    for (const auto& t : tables) {
      if (t.spec.name != rule.table) continue;
      for (const auto& f : t.binding.key_fields) {
        if (f.space == FieldRef::Space::kHeader) deps.push_back(f.instance);
      }
    }
  }
  for (const auto& [tag, name] : stage.executor) {
    for (const auto& a : actions) {
      if (a.name == name) CollectActionHeaderDeps(a, deps);
    }
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

std::vector<FieldRef> CollectStageReads(
    const arch::StageProgram& stage,
    const std::vector<arch::TableDecl>& tables) {
  std::vector<FieldRef> reads;
  for (const auto& rule : stage.matcher) {
    if (rule.guard != nullptr) {
      // Every field node in the guard is a read.
      std::vector<std::string> header_deps;
      rule.guard->CollectHeaderDeps(header_deps);
      // Collect field refs via a small walk.
      struct Walker {
        std::vector<FieldRef>* reads;
        void Walk(const ExprPtr& e) {
          if (e == nullptr) return;
          if (e->kind() == Expr::Kind::kField) reads->push_back(e->field());
          Walk(e->lhs());
          Walk(e->rhs());
        }
      } walker{&reads};
      walker.Walk(rule.guard);
    }
    for (const auto& t : tables) {
      if (t.spec.name != rule.table) continue;
      for (const auto& f : t.binding.key_fields) reads.push_back(f);
    }
  }
  return reads;
}

}  // namespace ipsa::compiler
