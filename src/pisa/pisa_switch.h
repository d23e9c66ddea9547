// pbm — PISA behavioral model (the baseline, standing in for bmv2).
//
// Architecture per the paper's PISA description (§1, §2): a standalone
// front-end parser that extracts *all* headers, a fixed number of physical
// match-action stages for ingress and egress, and a deparser (a no-op here
// because headers are edited in place). Memory is prorated: the pool is
// clustered per physical stage and a stage's tables must fit its cluster.
//
// The crucial property for the evaluation: the device only accepts a
// *monolithic* design. Any functional change requires LoadDesign() with a
// full new configuration — every table is destroyed (losing its entries,
// which the controller must repopulate) and every config word is rewritten.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/compiled_stage.h"
#include "arch/design.h"
#include "arch/pipeline_plan.h"
#include "net/ports.h"
#include "pisa/executor.h"
#include "telemetry/collector.h"
#include "telemetry/device_stats.h"
#include "util/status.h"

namespace ipsa::pisa {

struct PisaOptions {
  uint32_t physical_ingress_stages = 8;
  uint32_t physical_egress_stages = 8;
  uint32_t port_count = 16;
  // Per-stage memory proration: each physical stage owns one pool cluster.
  uint32_t sram_blocks_per_stage = 8;
  uint32_t tcam_blocks_per_stage = 2;
  uint32_t sram_width_bits = 256;
  uint32_t sram_depth = 2048;
  uint32_t tcam_width_bits = 256;
  uint32_t tcam_depth = 512;
};

class PisaSwitch : private PacketWalk {
 public:
  using Options = PisaOptions;

  explicit PisaSwitch(const PisaOptions& options = {});

  // Full design load: tear-down + rebuild. This is the ONLY way to change
  // functionality on PISA. Charges every config word to the device bus and
  // destroys all table contents.
  Status LoadDesign(const arch::DesignConfig& design);
  // Convenience: parse the monolithic JSON first (what a real device's
  // driver does), then load.
  Status LoadDesignJson(std::string_view json_text);

  bool HasDesign() const { return loaded_; }
  const arch::DesignConfig& design() const { return design_; }

  // Runtime table API (valid between loads; cleared by LoadDesign).
  // upsert=false is the strict bulk-RPC semantics: a duplicate identity
  // fails with kAlreadyExists instead of updating in place.
  Status AddEntry(const std::string& table, const table::Entry& entry,
                  bool upsert = true);
  Status EraseEntry(const std::string& table, const table::Entry& entry);
  // Brackets a bulk frame of entry ops on one table: the table's lookup
  // views are republished once, at EndEntryBatch.
  Status BeginEntryBatch(const std::string& table);
  Status EndEntryBatch(const std::string& table);

  // Processes one packet through parser -> ingress -> TM -> egress.
  // When `trace` is non-null, every stage execution is recorded into it.
  Result<telemetry::ProcessResult> Process(
      net::Packet& packet, uint32_t in_port,
      telemetry::ProcessTrace* trace = nullptr) {
    EnsureCompiled();
    return driver_.Process(packet, in_port, trace);
  }
  // Processes a batch of packets arriving on one port, reusing one scratch
  // context across the whole batch. Results are identical to calling
  // Process per packet in order.
  Result<std::vector<telemetry::ProcessResult>> ProcessBatch(
      std::span<net::Packet> packets, uint32_t in_port) {
    EnsureCompiled();
    return driver_.ProcessBatch(packets, in_port);
  }

  // Port-level API: inject to RX, run, collect TX.
  net::PortSet& ports() { return ports_; }
  // Drains all RX queues through the pipeline; returns packets processed.
  // With workers > 1 ports are sharded across that many workers (output is
  // bit-identical to the serial drain; register-touching designs are
  // serialized to one worker to keep read-modify-write order deterministic).
  Result<uint32_t> RunToCompletion(uint32_t workers = 1) {
    EnsureCompiled();
    return driver_.RunToCompletion(design_uses_registers_ ? 1 : workers);
  }

  telemetry::DeviceStats& stats() { return stats_; }
  const telemetry::DeviceStats& stats() const { return stats_; }

  // Telemetry: disabled by default (costs one branch per packet). Configure
  // sizes per-port metrics to this device's port count.
  void ConfigureTelemetry(const telemetry::TelemetryConfig& config) {
    telemetry_.Configure(config, options_.port_count);
  }
  telemetry::Collector& telemetry() { return telemetry_; }
  const telemetry::Collector& telemetry() const { return telemetry_; }
  // Bumped on every functional change (LoadDesign); tags snapshots/traces.
  uint64_t config_epoch() const { return config_epoch_; }

  // Pins the execution mode (default: compiled stages in the plan). The
  // differential fuzzing harness pins devices to each mode to cross-check
  // the compiled stages against the interpreter on identical devices;
  // flipping it invalidates the compiled state like any other config change.
  void SetExecMode(arch::ExecMode mode) {
    if (exec_mode_ != mode) {
      exec_mode_ = mode;
      ++config_epoch_;
    }
  }
  arch::ExecMode exec_mode() const { return exec_mode_; }

  arch::RegisterFile& registers() { return regs_; }

  const arch::TableCatalog& catalog() const { return catalog_; }
  const mem::Pool& pool() const { return pool_; }

  uint32_t physical_ingress_stages() const {
    return options_.physical_ingress_stages;
  }
  // Number of physical stages with a program mapped.
  uint32_t ActiveIngressStages() const;
  uint32_t ActiveEgressStages() const;

  // Debug/test introspection: the plan for the current config state (forces
  // the lazy rebuild). Programs the interpreter runs are marked "(interp)".
  std::string PlanToString();

 private:
  void Reset();
  // Recompiles the mapped stage programs if the configuration changed (the
  // only mutator is LoadDesign, tracked by config_epoch_; catalog/action
  // versions are included for belt and braces).
  void EnsureCompiled();
  // The per-packet pipeline walk (PacketWalk).
  Result<telemetry::ProcessResult> ProcessCore(
      net::Packet& packet, uint32_t in_port, arch::PacketContext& ctx,
      telemetry::DeviceStats& stats, telemetry::MetricsShard* tshard,
      telemetry::ProcessTrace* trace) override;
  uint64_t TraceEpoch() const override { return config_epoch_; }

  PisaOptions options_;
  mem::Pool pool_;
  arch::TableCatalog catalog_;
  arch::ActionStore actions_;
  arch::RegisterFile regs_;
  arch::Metadata metadata_proto_;
  arch::DesignConfig design_;
  bool loaded_ = false;

  // Physical stage slots (index = physical position).
  std::vector<std::optional<arch::StageProgram>> ingress_;
  std::vector<std::optional<arch::StageProgram>> egress_;

  net::PortSet ports_;
  telemetry::DeviceStats stats_;
  telemetry::Collector telemetry_;
  DeviceDriver driver_{*this, ports_, stats_, telemetry_};

  // Compiled fast-path state (rebuilt lazily by EnsureCompiled). A slot is
  // nullopt when the physical stage is empty or its program could not be
  // compiled (interpreter fallback).
  struct CompiledKey {
    uint64_t epoch = 0;
    uint64_t catalog = 0;
    uint64_t actions = 0;
    bool operator==(const CompiledKey&) const = default;
  };
  uint64_t config_epoch_ = 1;
  arch::ExecMode exec_mode_ = arch::ExecMode::kSpecialize;
  CompiledKey compiled_key_;  // all-zero: never matches the first key
  std::vector<std::optional<arch::CompiledStage>> compiled_ingress_;
  std::vector<std::optional<arch::CompiledStage>> compiled_egress_;
  // Straight-line execution plan over the physical stages; points into
  // ingress_/egress_/compiled_* and is rebuilt with them.
  arch::PipelinePlan plan_;
  bool design_uses_registers_ = false;
  int ingress_port_slot_ = arch::Metadata::kInvalidSlot;
};

}  // namespace ipsa::pisa
