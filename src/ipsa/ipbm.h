// ipbm — the IPSA behavioral model (paper §4.1).
//
// Four modules, as in the paper:
//  * CM  (Communication Module): packet I/O — in-memory ports here.
//  * PM  (Pipeline Module): the TSPs in an elastic pipeline.
//  * CCM (Control Channel Module): the runtime configuration surface the
//    controller drives; every operation below is a CCM command.
//  * SM  (Storage Module): the disaggregated memory pool, crossbar, table
//    catalog, header registry and register file.
//
// The defining property: there is NO monolithic load. The base design and
// all later updates go through the same incremental commands — write a TSP
// template, create/destroy a table, link a header, flip the selector. Each
// charges only its own config words, which is why t_L stays milliseconds
// while PISA reloads everything (Table 1).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "arch/compiled_stage.h"
#include "arch/design.h"
#include "arch/pipeline_plan.h"
#include "ipsa/elastic_pipeline.h"
#include "mem/crossbar.h"
#include "net/ports.h"
#include "pisa/executor.h"
#include "telemetry/collector.h"
#include "telemetry/device_stats.h"
#include "util/status.h"

namespace ipsa::ipbm {

struct IpbmOptions {
  uint32_t tsp_count = 12;
  uint32_t port_count = 16;
  mem::CrossbarKind crossbar = mem::CrossbarKind::kFull;
  // Shared disaggregated pool (contrast with pbm's per-stage proration).
  uint32_t sram_blocks = 128;
  uint32_t tcam_blocks = 32;
  uint32_t sram_width_bits = 256;
  uint32_t sram_depth = 2048;
  uint32_t tcam_width_bits = 256;
  uint32_t tcam_depth = 512;
  uint32_t clusters = 1;  // >1 exercises the clustered-crossbar tradeoff
};

// rp4bc's placement of logical stages onto a TSP.
struct TspAssignment {
  uint32_t tsp_id = 0;
  TspRole role = TspRole::kIngress;
  std::vector<std::string> stage_names;  // merged stages, in order
};

class IpbmSwitch : private pisa::PacketWalk {
 public:
  using Options = IpbmOptions;

  explicit IpbmSwitch(const IpbmOptions& options = {});

  // --- CCM: header plane -------------------------------------------------
  Status AddHeaderType(const arch::HeaderTypeDef& def);
  Status RemoveHeaderType(const std::string& name);
  Status LinkHeader(const std::string& pre, const std::string& next,
                    uint64_t tag);
  Status UnlinkHeader(const std::string& pre, uint64_t tag);

  // --- CCM: program plane ------------------------------------------------
  Status DeclareMetadata(const std::string& name, uint32_t width_bits);
  Status AddAction(const arch::ActionDef& def);
  Status RemoveAction(const std::string& name);
  Status CreateRegister(const std::string& name, uint32_t size);
  Status DestroyRegister(const std::string& name);
  Status CreateTable(const arch::TableDecl& decl);
  Status DestroyTable(const std::string& name);

  // --- CCM: pipeline plane (drains first) ---------------------------------
  // Writes a TSP's template (the merged stage programs), assigns its side,
  // and routes the crossbar to every table the template references.
  Status WriteTspTemplate(uint32_t tsp_id, TspRole role,
                          std::vector<arch::StageProgram> programs);
  // Clears a TSP back to bypassed/idle and tears down its crossbar routes.
  Status ClearTsp(uint32_t tsp_id);

  // --- CCM: runtime table API ---------------------------------------------
  // upsert=false is the strict bulk-RPC semantics: a duplicate identity
  // fails with kAlreadyExists instead of updating in place.
  Status AddEntry(const std::string& table, const table::Entry& entry,
                  bool upsert = true);
  Status EraseEntry(const std::string& table, const table::Entry& entry);

  // Applies a full base design through the incremental commands above.
  // `assignments` is rp4bc's stage->TSP layout.
  Status LoadBaseDesign(const arch::DesignConfig& design,
                        const std::vector<TspAssignment>& assignments);

  // --- CM / data plane (pisa::DeviceDriver) --------------------------------
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
  net::PortSet& ports() { return ports_; }
  // Drains all RX queues; with workers > 1 ports are sharded across that
  // many workers (output is bit-identical to the serial drain; pipelines
  // whose programs touch the register file are serialized to one worker to
  // keep read-modify-write order deterministic).
  Result<uint32_t> RunToCompletion(uint32_t workers = 1) {
    EnsureCompiled();
    return driver_.RunToCompletion(pipeline_uses_registers_ ? 1 : workers);
  }

  // --- introspection -------------------------------------------------------
  ElasticPipeline& pipeline() { return pipeline_; }
  const ElasticPipeline& pipeline() const { return pipeline_; }
  mem::Pool& pool() { return pool_; }
  mem::Crossbar& crossbar() { return xbar_; }
  arch::HeaderRegistry& headers() { return registry_; }
  arch::RegisterFile& registers() { return regs_; }
  const arch::TableCatalog& catalog() const { return catalog_; }
  telemetry::DeviceStats& stats() { return stats_; }
  const telemetry::DeviceStats& stats() const { return stats_; }

  // Telemetry: disabled by default (costs one branch per packet). Configure
  // sizes per-port metrics to this device's port count.
  void ConfigureTelemetry(const telemetry::TelemetryConfig& config) {
    telemetry_.Configure(config, options_.port_count);
  }
  telemetry::Collector& telemetry() { return telemetry_; }
  const telemetry::Collector& telemetry() const { return telemetry_; }
  // Bumped on every CCM command; tags snapshots and sampled traces, so a
  // scrape across an in-situ update shows the epoch advancing. Atomic:
  // runtime entry ops bump it while data-plane workers stamp traces.
  uint64_t config_epoch() const {
    return config_epoch_.load(std::memory_order_relaxed);
  }

  // Pins the execution mode (default: compiled stages in the plan). The
  // differential fuzzing harness pins devices to each mode to cross-check
  // the compiled stages against the interpreter on identical devices;
  // flipping it invalidates the compiled state like any other config change.
  void SetExecMode(arch::ExecMode mode) {
    if (exec_mode_ != mode) {
      exec_mode_ = mode;
      recompile_all_ = true;
      BumpStructuralEpoch();
    }
  }
  arch::ExecMode exec_mode() const { return exec_mode_; }

  // Finds the TSP currently hosting a logical stage, or -1.
  int32_t TspOfStage(std::string_view stage_name) const;

  // Debug/test introspection: the plan for the current config state (forces
  // the lazy rebuild). Programs the interpreter runs are marked "(interp)".
  std::string PlanToString();
  // Test introspection: stage programs resolved by the lazy rebuilds so
  // far. A rebuild resolves only the TSPs an update touched.
  uint64_t stage_compiles() const { return stage_compiles_; }

 private:
  // One stage program of one TSP, pre-resolved where possible. A program
  // whose references cannot all be resolved (compiled == nullopt) falls back
  // to the interpreter — never an error at compile time.
  struct CompiledProgram {
    const arch::StageProgram* source = nullptr;
    std::optional<arch::CompiledStage> compiled;
    bool uses_registers = false;
  };
  // Everything the compiled state depends on. The structural epoch covers
  // structural CCM commands (including metadata declarations, which have no
  // own version counter); the component versions cover direct mutations
  // through the mutable headers()/pipeline() accessors. Runtime entry ops
  // deliberately stay out of the key: lookups read table content live, so
  // churn never invalidates (or races with) the compiled fast path.
  struct CompiledKey {
    uint64_t epoch = 0;
    uint64_t registry = 0;
    uint64_t catalog = 0;
    uint64_t actions = 0;
    uint64_t pipeline = 0;
    bool operator==(const CompiledKey&) const = default;
  };

  Status RouteCrossbarFor(uint32_t tsp_id);
  void ChargeConfigWords(uint64_t words) {
    stats_.config_words_written += words;
  }
  // A structural CCM command: advances both epochs. Only runs quiesced
  // relative to the data plane (callers drain first or own the device).
  void BumpStructuralEpoch() {
    ++structural_epoch_;
    config_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  CompiledKey CurrentKey() const;
  // If anything changed since the last call, recompiles the TSPs it touched
  // (CompileTsp) and relowers the plan over all of them.
  void EnsureCompiled();
  // Whether TSP `id`'s compiled programs are still valid: its template is
  // the one they were compiled from, each compiled (an interpreter fallback
  // is retried), and none names a table or action created or removed since.
  bool TspStillCompiled(uint32_t id) const;
  void CompileTsp(uint32_t id);
  // The per-packet pipeline walk (pisa::PacketWalk). EnsureCompiled() must
  // have run since the last configuration change.
  Result<telemetry::ProcessResult> ProcessCore(
      net::Packet& packet, uint32_t in_port, arch::PacketContext& ctx,
      telemetry::DeviceStats& stats, telemetry::MetricsShard* tshard,
      telemetry::ProcessTrace* trace) override;
  uint64_t TraceEpoch() const override { return config_epoch(); }
  // Stopwatches one CCM mutation: charges the wall-clock window and, when
  // the command drained the pipeline, the drain cycles.
  void RecordUpdateWindow(std::chrono::steady_clock::time_point start);

  IpbmOptions options_;
  mem::Pool pool_;
  mem::Crossbar xbar_;
  arch::TableCatalog catalog_;
  arch::ActionStore actions_;
  arch::RegisterFile regs_;
  arch::HeaderRegistry registry_;
  arch::Metadata metadata_proto_;
  ElasticPipeline pipeline_;
  net::PortSet ports_;
  telemetry::DeviceStats stats_;
  telemetry::Collector telemetry_;
  pisa::DeviceDriver driver_{*this, ports_, stats_, telemetry_};

  // Compiled fast-path state (rebuilt lazily by EnsureCompiled).
  // config_epoch_ counts every CCM command including runtime entry ops
  // (telemetry-visible); structural_epoch_ counts only the quiesced
  // structural commands and feeds CompiledKey, so entry churn concurrent
  // with packet workers neither rebuilds nor races the compiled state.
  std::atomic<uint64_t> config_epoch_{1};
  uint64_t structural_epoch_ = 1;
  arch::ExecMode exec_mode_ = arch::ExecMode::kSpecialize;
  CompiledKey compiled_key_;  // all-zero: never matches the first CurrentKey
  std::vector<std::vector<CompiledProgram>> compiled_tsps_;
  // Each TSP's template version when its programs were compiled.
  std::vector<uint64_t> compiled_versions_;
  // What the CCM commands changed since the last rebuild that a compiled
  // program can depend on: the names of tables created or destroyed and
  // of actions added or removed. A change to the header registry or the
  // metadata layout, or of the exec mode, recompiles every TSP instead.
  std::set<std::string, std::less<>> changed_tables_;
  std::set<std::string, std::less<>> changed_actions_;
  bool recompile_all_ = true;
  uint64_t stage_compiles_ = 0;
  // Straight-line execution plan over the active TSPs; points into
  // compiled_tsps_/the pipeline templates and is rebuilt with them.
  arch::PipelinePlan plan_;
  bool pipeline_uses_registers_ = false;
  int ingress_port_slot_ = arch::Metadata::kInvalidSlot;
};

}  // namespace ipsa::ipbm
