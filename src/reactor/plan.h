// Pre-packed reaction plans with a malleability boundary.
//
// A reaction path wins or loses its latency budget at compile time: every
// name lookup, entry pack, script parse, and wire encode that can happen
// before the trigger fires must happen there. PlanBuilder does all of that
// against the ApiSpec — table ops come out as pre-packed table::Entry values
// (the exact layout the device consumes), the whole batch additionally as an
// already-encoded TableBatchRequest payload (so the over-the-wire path just
// frames bytes, the RBFRT restructuring), and in-situ scripts are parsed and
// snippet-resolved up front so firing installs a validated template.
//
// The malleable set is the Mantis-style authority boundary: a plan may only
// touch tables and rP4 functions its policy was annotated with. Violations
// are compile-time errors — a reactor can never acquire authority at
// reaction time that it wasn't granted when the plan was built.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "compiler/rp4fc.h"
#include "controller/runtime_api.h"
#include "controller/script.h"
#include "rpc/protocol.h"
#include "util/status.h"

namespace ipsa::reactor {

// Which parts of the data plane a policy may mutate.
struct Malleable {
  std::set<std::string> tables;     // runtime table names
  std::set<std::string> functions;  // rP4 function names (install/remove)
};

struct CompiledPlan {
  std::string name;

  // Batched table ops, applied first. `wire_batch` is the same batch as an
  // encoded TableBatchRequest payload; in-process sinks walk `ops`, the RPC
  // sink sends `wire_batch` verbatim.
  std::vector<rpc::TableOp> ops;
  std::vector<uint8_t> wire_batch;

  // In-situ installs, applied after the ops in order. `source` is the
  // validated script text; `func_name` what it loads or removes.
  struct Install {
    std::string func_name;
    std::string source;
  };
  std::vector<Install> installs;

  bool empty() const { return ops.empty() && installs.empty(); }
};

class PlanBuilder {
 public:
  PlanBuilder(std::string name, const compiler::ApiSpec& api,
              const Malleable& malleable);

  // Table ops (EntryBuilder semantics; see controller/runtime_api.h). The
  // first error — unknown table/action, width mismatch, non-malleable
  // target — latches and Compile() reports it.
  PlanBuilder& Add(std::string_view table, std::string_view action,
                   const std::vector<controller::KeyValue>& keys,
                   const std::vector<mem::BitString>& args,
                   uint32_t prefix_len = 0, uint32_t priority = 0);
  PlanBuilder& Modify(std::string_view table, std::string_view action,
                      const std::vector<controller::KeyValue>& keys,
                      const std::vector<mem::BitString>& args,
                      uint32_t prefix_len = 0, uint32_t priority = 0);
  // Selector member by bucket index; kAdd overwrites an occupied bucket
  // (that is how re-weighting works), kDelete withdraws it.
  PlanBuilder& SelectorMember(rpc::TableOpKind op, std::string_view table,
                              uint32_t bucket, std::string_view action,
                              const std::vector<mem::BitString>& args);

  // An in-situ update script (controller/script.h grammar). Parsed and
  // snippet-resolved now; the function it loads/updates/removes must be in
  // the malleable set.
  PlanBuilder& Script(const std::string& script_source,
                      const controller::SnippetResolver& resolver);

  // Returns the plan with the wire batch encoded, or the first error any
  // verb hit.
  Result<CompiledPlan> Compile();

 private:
  PlanBuilder& Op(rpc::TableOpKind op, std::string_view table,
                  std::string_view action,
                  const std::vector<controller::KeyValue>& keys,
                  const std::vector<mem::BitString>& args, uint32_t prefix_len,
                  uint32_t priority);
  bool CheckTable(std::string_view table);

  controller::EntryBuilder builder_;
  const Malleable* malleable_;
  CompiledPlan plan_;
  Status status_;
};

}  // namespace ipsa::reactor
