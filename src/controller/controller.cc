#include "controller/controller.h"

#include "controller/designs.h"
#include "p4lite/parser.h"
#include "rp4/parser.h"
#include "rp4/printer.h"
#include "util/clock.h"
#include "util/logging.h"

namespace ipsa::controller {

Result<FlowTiming> Rp4FlowController::LoadBaseFromP4(
    const std::string& p4_source) {
  util::Stopwatch compile_clock;
  // p4c stand-in: P4 -> HLIR.
  IPSA_ASSIGN_OR_RETURN(p4lite::Hlir hlir, p4lite::ParseP4(p4_source));
  // rp4fc: HLIR -> rP4 *text* (the real flow writes rP4 source out)...
  IPSA_ASSIGN_OR_RETURN(compiler::Rp4fcResult fc, compiler::RunRp4fc(hlir));
  std::string rp4_text = rp4::PrintRp4(fc.program);
  // ...which rp4bc then consumes.
  IPSA_ASSIGN_OR_RETURN(rp4::Rp4Program program, rp4::ParseRp4(rp4_text));
  program.name = "base";
  FlowTiming first_half;
  first_half.compile_ms = compile_clock.ElapsedMillis();
  IPSA_ASSIGN_OR_RETURN(FlowTiming rest, LoadBase(std::move(program)));
  rest.compile_ms += first_half.compile_ms;
  return rest;
}

Result<FlowTiming> Rp4FlowController::LoadBaseFromRp4(
    const std::string& rp4_source) {
  util::Stopwatch compile_clock;
  IPSA_ASSIGN_OR_RETURN(rp4::Rp4Program program, rp4::ParseRp4(rp4_source));
  FlowTiming parse_time;
  parse_time.compile_ms = compile_clock.ElapsedMillis();
  IPSA_ASSIGN_OR_RETURN(FlowTiming rest, LoadBase(std::move(program)));
  rest.compile_ms += parse_time.compile_ms;
  return rest;
}

Result<FlowTiming> Rp4FlowController::LoadBase(rp4::Rp4Program program) {
  FlowTiming timing;
  util::Stopwatch compile_clock;
  IPSA_ASSIGN_OR_RETURN(compiler::Rp4bcResult compiled,
                        compiler::CompileBase(program, options_));
  timing.compile_ms = compile_clock.ElapsedMillis();

  util::Stopwatch load_clock;
  IPSA_RETURN_IF_ERROR(
      device_->LoadBaseDesign(compiled.design, compiled.layout.assignments));
  timing.load_ms = load_clock.ElapsedMillis();

  program_ = std::move(program);
  layout_ = std::move(compiled.layout);
  design_ = std::move(compiled.design);
  api_ = compiler::BuildApiSpec(design_);
  return timing;
}

Result<FlowTiming> Rp4FlowController::ApplyScript(
    const std::string& script_text, const SnippetResolver& resolver) {
  FlowTiming timing;
  util::Stopwatch compile_clock;
  IPSA_ASSIGN_OR_RETURN(compiler::UpdateRequest request,
                        ParseScript(script_text, resolver));
  IPSA_ASSIGN_OR_RETURN(
      compiler::UpdatePlan plan,
      compiler::CompileUpdate(program_, layout_, request, options_));
  timing.compile_ms = compile_clock.ElapsedMillis();

  util::Stopwatch load_clock;
  IPSA_RETURN_IF_ERROR(compiler::ApplyPlanToDevice(plan, *device_));
  timing.load_ms = load_clock.ElapsedMillis();

  program_ = std::move(plan.updated_program);
  layout_ = std::move(plan.updated_layout);
  design_ = std::move(plan.updated_design);
  api_ = compiler::BuildApiSpec(design_);
  IPSA_LOG(kInfo) << "rP4 flow: applied update ('" << request.func_name
                  << "'), " << plan.ops.size() << " device ops, "
                  << plan.relocations << " relocations";
  return timing;
}

Status Rp4FlowController::AddEntry(const std::string& table,
                                   const table::Entry& entry, bool upsert) {
  return device_->AddEntry(table, entry, upsert);
}

std::string Rp4FlowController::CurrentRp4Source() const {
  return rp4::PrintRp4(program_);
}

// ---------------------------------------------------------------------------

Result<FlowTiming> PisaFlowController::CompileAndLoad(
    const std::string& p4_source) {
  FlowTiming timing;
  util::Stopwatch compile_clock;
  IPSA_ASSIGN_OR_RETURN(p4lite::Hlir hlir, p4lite::ParseP4(p4_source));
  IPSA_ASSIGN_OR_RETURN(compiler::PisaBackendResult compiled,
                        compiler::RunPisaBackend(hlir, options_));
  // The monolithic "binary": serialize and reparse, as a real driver does.
  std::string design_json = compiled.design.ToJson().Dump();
  timing.compile_ms = compile_clock.ElapsedMillis();

  util::Stopwatch load_clock;
  IPSA_RETURN_IF_ERROR(device_->LoadDesignJson(design_json));
  // Full reload wiped every table: repopulate from the shadow store, one
  // batch (one publication) per table. A table the new design no longer
  // has is skipped.
  for (const auto& [table, entries] : shadow_) {
    auto t = device_->catalog().Get(table);
    if (!t.ok()) continue;
    (*t)->BeginBatch();
    Status s = OkStatus();
    for (const auto& entry : entries) {
      s = device_->AddEntry(table, entry);
      if (!s.ok()) break;
    }
    (*t)->EndBatch();
    IPSA_RETURN_IF_ERROR(s);
  }
  timing.load_ms = load_clock.ElapsedMillis();
  api_ = compiler::BuildApiSpec(device_->design());
  return timing;
}

Status PisaFlowController::AddEntry(const std::string& table,
                                    const table::Entry& entry, bool upsert) {
  IPSA_RETURN_IF_ERROR(device_->AddEntry(table, entry, upsert));
  shadow_[table].push_back(entry);
  return OkStatus();
}

uint64_t PisaFlowController::shadow_entry_count() const {
  uint64_t n = 0;
  for (const auto& [table, entries] : shadow_) n += entries.size();
  return n;
}

}  // namespace ipsa::controller
