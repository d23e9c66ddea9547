#include "reactor/plan.h"

#include "wire/wire.h"

namespace ipsa::reactor {

PlanBuilder::PlanBuilder(std::string name, const compiler::ApiSpec& api,
                         const Malleable& malleable)
    : builder_(api), malleable_(&malleable) {
  plan_.name = std::move(name);
}

bool PlanBuilder::CheckTable(std::string_view table) {
  if (malleable_->tables.count(std::string(table)) > 0) return true;
  if (status_.ok()) {
    status_ = FailedPrecondition("plan '" + plan_.name + "': table '" +
                                 std::string(table) +
                                 "' is not in the policy's malleable set");
  }
  return false;
}

PlanBuilder& PlanBuilder::Op(rpc::TableOpKind op, std::string_view table,
                             std::string_view action,
                             const std::vector<controller::KeyValue>& keys,
                             const std::vector<mem::BitString>& args,
                             uint32_t prefix_len, uint32_t priority) {
  if (!status_.ok() || !CheckTable(table)) return *this;
  Result<table::Entry> entry =
      builder_.Build(table, action, keys, args, prefix_len, priority);
  if (!entry.ok()) {
    status_ = entry.status();
    return *this;
  }
  rpc::TableOp top;
  top.op = op;
  top.table = std::string(table);
  top.entry = std::move(entry).value();
  plan_.ops.push_back(std::move(top));
  return *this;
}

PlanBuilder& PlanBuilder::Add(std::string_view table, std::string_view action,
                              const std::vector<controller::KeyValue>& keys,
                              const std::vector<mem::BitString>& args,
                              uint32_t prefix_len, uint32_t priority) {
  return Op(rpc::TableOpKind::kAdd, table, action, keys, args, prefix_len,
            priority);
}

PlanBuilder& PlanBuilder::Modify(std::string_view table,
                                 std::string_view action,
                                 const std::vector<controller::KeyValue>& keys,
                                 const std::vector<mem::BitString>& args,
                                 uint32_t prefix_len, uint32_t priority) {
  return Op(rpc::TableOpKind::kModify, table, action, keys, args, prefix_len,
            priority);
}

PlanBuilder& PlanBuilder::SelectorMember(
    rpc::TableOpKind op, std::string_view table, uint32_t bucket,
    std::string_view action, const std::vector<mem::BitString>& args) {
  if (!status_.ok() || !CheckTable(table)) return *this;
  Result<table::Entry> entry =
      builder_.BuildSelectorMember(table, bucket, action, args);
  if (!entry.ok()) {
    status_ = entry.status();
    return *this;
  }
  rpc::TableOp top;
  top.op = op;
  top.table = std::string(table);
  top.entry = std::move(entry).value();
  plan_.ops.push_back(std::move(top));
  return *this;
}

PlanBuilder& PlanBuilder::Script(const std::string& script_source,
                                 const controller::SnippetResolver& resolver) {
  if (!status_.ok()) return *this;
  // Parse now: a malformed script or unresolvable snippet must never
  // surface at reaction time.
  Result<compiler::UpdateRequest> req =
      controller::ParseScript(script_source, resolver);
  if (!req.ok()) {
    status_ = req.status();
    return *this;
  }
  const std::string& func = req.value().func_name;
  if (func.empty()) {
    status_ = InvalidArgument("plan '" + plan_.name +
                              "': script has no --func_name target");
    return *this;
  }
  if (malleable_->functions.count(func) == 0) {
    status_ = FailedPrecondition("plan '" + plan_.name + "': function '" +
                                 func +
                                 "' is not in the policy's malleable set");
    return *this;
  }
  plan_.installs.push_back(CompiledPlan::Install{func, script_source});
  return *this;
}

Result<CompiledPlan> PlanBuilder::Compile() {
  IPSA_RETURN_IF_ERROR(status_);
  if (!plan_.ops.empty()) {
    rpc::TableBatchRequest req;
    req.ops = plan_.ops;
    wire::Writer w;
    req.Encode(w);
    plan_.wire_batch = w.Take();
  }
  return plan_;
}

}  // namespace ipsa::reactor
