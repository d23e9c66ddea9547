// Table 1's two update flows, shared by bench_table1 (which prints them)
// and the ctest that pins their wall-time-free columns.
//
//   PisaFlowUpdate: full P4 recompile, full design reload, repopulation.
//   Rp4FlowUpdate:  incremental snippet compile (rp4bc) and delta write.
//
// With `hardware`, t_L is the config-channel model (hw/models.h) applied to
// the exact config-word count the device charged, and both compilers run
// their hardware-grade solvers; without it, t_L is measured wall time on the
// behavioral switch.
#pragma once

#include <cstdint>
#include <string>

#include "bench/common.h"
#include "controller/script.h"
#include "hw/models.h"
#include "p4lite/parser.h"
#include "util/clock.h"

namespace ipsa::bench {

struct Row {
  double tc_ms = 0;
  double tl_ms = 0;
  // What the update wrote and did: wall-time free, so tests can pin them.
  uint64_t config_words = 0;
  size_t device_ops = 0;
};

// --- PISA flow (full recompile + full reload + repopulate) ----------------------

inline Result<Row> PisaFlowUpdate(UseCase uc, bool hardware) {
  // Start from a device already running the base design with entries —
  // that's the state an in-service update finds.
  IPSA_ASSIGN_OR_RETURN(PisaSetup setup, MakePisaSetup(UseCase::kBase));
  Row row;

  // t_C: recompile the whole updated program.
  util::Stopwatch compile_clock;
  IPSA_ASSIGN_OR_RETURN(p4lite::Hlir hlir, p4lite::ParseP4(FullP4For(uc)));
  compiler::PisaBackendOptions options;
  // The hardware back end runs the expensive exact table-packing search;
  // the bmv2-class software back end compiles greedily.
  options.solver = hardware ? compiler::SolveMode::kExact
                            : compiler::SolveMode::kGreedy;
  // The software (bmv2-class) backend skips the whole-program placement
  // refinement; bmv2 has no placement problem at all.
  options.refine_rounds = hardware ? 400 : 20;
  IPSA_ASSIGN_OR_RETURN(compiler::PisaBackendResult compiled,
                        compiler::RunPisaBackend(hlir, options));
  std::string design_json = compiled.design.ToJson().Dump();
  row.tc_ms = compile_clock.ElapsedMillis();

  // t_L: full reload + repopulating every table the controller shadows.
  uint64_t words_before = setup.device->stats().config_words_written;
  util::Stopwatch load_clock;
  IPSA_RETURN_IF_ERROR(setup.device->LoadDesignJson(design_json));
  // Repopulate base entries (the new tables would additionally need their
  // own entries — charged to both flows equally, so omitted).
  auto add = [&setup](const std::string& t, const table::Entry& e) {
    Status s = setup.device->AddEntry(t, e);
    return s.code() == StatusCode::kNotFound ? OkStatus() : s;
  };
  // Rebuild the API for the new design and repopulate every base table.
  {
    controller::BaselineConfig config;
    compiler::ApiSpec api = compiler::BuildApiSpec(setup.device->design());
    IPSA_RETURN_IF_ERROR(controller::PopulateBaseline(api, add, config));
  }
  double measured_load_ms = load_clock.ElapsedMillis();
  row.config_words = setup.device->stats().config_words_written - words_before;
  row.tl_ms = hardware ? hw::LoadTimeMs(row.config_words) : measured_load_ms;
  return row;
}

// --- rP4 flow (incremental snippet compile + delta write) -----------------------

inline Result<Row> Rp4FlowUpdate(UseCase uc, bool hardware) {
  IPSA_ASSIGN_OR_RETURN(Rp4Setup setup, MakeRp4Setup(UseCase::kBase));
  Row row;

  util::Stopwatch compile_clock;
  IPSA_ASSIGN_OR_RETURN(
      compiler::UpdateRequest request,
      controller::ParseScript(ScriptFor(uc),
                              controller::designs::ResolveSnippet));
  compiler::Rp4bcOptions options;
  options.layout_mode = hardware ? compiler::LayoutMode::kDp
                                 : compiler::LayoutMode::kGreedy;
  IPSA_ASSIGN_OR_RETURN(
      compiler::UpdatePlan plan,
      compiler::CompileUpdate(setup.controller->program(),
                              setup.controller->layout(), request, options));
  // The incremental flow also emits the updated templates as JSON.
  std::string templates;
  for (const auto& op : plan.ops) {
    if (op.kind == compiler::DeviceOp::Kind::kWriteTemplate) {
      for (const auto& p : op.programs) {
        templates += StageProgramToJson(p).Dump();
      }
    }
  }
  row.tc_ms = compile_clock.ElapsedMillis();
  row.device_ops = plan.ops.size();

  uint64_t words_before = setup.device->stats().config_words_written;
  util::Stopwatch load_clock;
  IPSA_RETURN_IF_ERROR(compiler::ApplyPlanToDevice(plan, *setup.device));
  double measured_load_ms = load_clock.ElapsedMillis();
  row.config_words = setup.device->stats().config_words_written - words_before;
  row.tl_ms = hardware ? hw::LoadTimeMs(row.config_words) : measured_load_ms;
  return row;
}

}  // namespace ipsa::bench
