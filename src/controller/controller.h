// The runtime controller (paper §4.1 "Controller"): drives the two design
// flows against the behavioral devices.
//
// Rp4FlowController — the paper's in-situ flow. Base design: P4 source ->
// p4lite (HLIR) -> rp4fc (rP4 text) -> rp4bc (templates + layout) ->
// incremental device commands. Updates: script + rP4 snippet -> rp4bc
// incremental mode -> delta commands only. Tables keep their entries across
// updates; only new tables need population.
//
// PisaFlowController — the baseline flow. Every change recompiles the whole
// P4 program (p4lite + PISA backend), serializes the monolithic design to
// JSON, fully reloads the device, and REPOPULATES every table from the
// controller's shadow copy (the cost Table 1's note calls out).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "compiler/pisa_backend.h"
#include "compiler/rp4bc.h"
#include "compiler/rp4fc.h"
#include "controller/runtime_api.h"
#include "controller/script.h"
#include "ipsa/ipbm.h"
#include "pisa/pisa_switch.h"
#include "util/status.h"

namespace ipsa::controller {

// Timing of one design-flow operation, the quantities Table 1 reports.
struct FlowTiming {
  double compile_ms = 0;  // t_C: source/snippet -> device configuration
  double load_ms = 0;     // t_L: pushing the configuration to the device
};

class Rp4FlowController {
 public:
  using Options = compiler::Rp4bcOptions;

  Rp4FlowController(ipbm::IpbmSwitch& device, compiler::Rp4bcOptions options)
      : device_(&device), options_(std::move(options)) {}

  // Base design from P4 source (the preferred base path, §3.2) or directly
  // from rP4 source.
  Result<FlowTiming> LoadBaseFromP4(const std::string& p4_source);
  Result<FlowTiming> LoadBaseFromRp4(const std::string& rp4_source);

  // Runtime update from a controller script (Fig. 5b/5c).
  Result<FlowTiming> ApplyScript(const std::string& script_text,
                                 const SnippetResolver& resolver);

  // Runtime table API. upsert=false: strict add, duplicates fail with
  // kAlreadyExists (bulk RPC semantics).
  Status AddEntry(const std::string& table, const table::Entry& entry,
                  bool upsert = true);
  Result<table::Entry> BuildEntry(
      std::string_view table, std::string_view action,
      const std::vector<KeyValue>& key_values,
      const std::vector<mem::BitString>& action_args, uint32_t prefix_len = 0,
      uint32_t priority = 0);

  const rp4::Rp4Program& program() const { return program_; }
  const compiler::TspLayout& layout() const { return layout_; }
  const compiler::ApiSpec& api() const { return api_; }
  const arch::DesignConfig& design() const { return design_; }
  ipbm::IpbmSwitch& device() { return *device_; }
  // rP4 source of the current base design (rp4fc output / updated base).
  std::string CurrentRp4Source() const;

 private:
  Result<FlowTiming> LoadBase(rp4::Rp4Program program);

  ipbm::IpbmSwitch* device_;
  compiler::Rp4bcOptions options_;
  rp4::Rp4Program program_;
  compiler::TspLayout layout_;
  compiler::ApiSpec api_;
  arch::DesignConfig design_;
};

class PisaFlowController {
 public:
  using Options = compiler::PisaBackendOptions;

  PisaFlowController(pisa::PisaSwitch& device,
                     compiler::PisaBackendOptions options)
      : device_(&device), options_(std::move(options)) {}

  // Full recompile + full reload + shadow repopulation.
  Result<FlowTiming> CompileAndLoad(const std::string& p4_source);

  // Runtime table API: writes the device AND the shadow store so entries
  // survive the next full reload. upsert=false: strict add, duplicates fail
  // with kAlreadyExists and never reach the shadow.
  Status AddEntry(const std::string& table, const table::Entry& entry,
                  bool upsert = true);
  Result<table::Entry> BuildEntry(
      std::string_view table, std::string_view action,
      const std::vector<KeyValue>& key_values,
      const std::vector<mem::BitString>& action_args, uint32_t prefix_len = 0,
      uint32_t priority = 0);

  const compiler::ApiSpec& api() const { return api_; }
  pisa::PisaSwitch& device() { return *device_; }
  uint64_t shadow_entry_count() const;

 private:
  pisa::PisaSwitch* device_;
  compiler::PisaBackendOptions options_;
  compiler::ApiSpec api_;
  std::map<std::string, std::vector<table::Entry>> shadow_;
};

}  // namespace ipsa::controller
