#include "pisa/pisa_switch.h"

#include <chrono>

#include "arch/ii_model.h"
#include "arch/parse_engine.h"
#include "pisa/executor.h"
#include "table/rcu.h"
#include "telemetry/plan_observers.h"
#include "util/logging.h"

namespace ipsa::pisa {

namespace {

mem::PoolConfig MakePoolConfig(const PisaOptions& o) {
  uint32_t stages = o.physical_ingress_stages + o.physical_egress_stages;
  mem::PoolConfig cfg;
  cfg.sram_blocks = o.sram_blocks_per_stage * stages;
  cfg.sram_width_bits = o.sram_width_bits;
  cfg.sram_depth = o.sram_depth;
  cfg.tcam_blocks = o.tcam_blocks_per_stage * stages;
  cfg.tcam_width_bits = o.tcam_width_bits;
  cfg.tcam_depth = o.tcam_depth;
  // One cluster per physical stage: PISA prorates memory among stages.
  cfg.clusters = stages;
  return cfg;
}

}  // namespace

PisaSwitch::PisaSwitch(const PisaOptions& options)
    : options_(options),
      pool_(MakePoolConfig(options)),
      catalog_(pool_),
      metadata_proto_(arch::Metadata::Standard()),
      ingress_(options.physical_ingress_stages),
      egress_(options.physical_egress_stages),
      ports_(options.port_count) {}

void PisaSwitch::Reset() {
  // Destroy all tables (their entries are lost — the controller must
  // repopulate after a reload, the cost Table 1's note points out).
  for (const std::string& name : catalog_.TableNames()) {
    (void)catalog_.DestroyTable(name);
  }
  for (const std::string& name : actions_.ActionNames()) {
    (void)actions_.Remove(name);
  }
  for (const auto& reg : design_.registers) {
    (void)regs_.Destroy(reg.name);
  }
  ingress_.assign(options_.physical_ingress_stages, std::nullopt);
  egress_.assign(options_.physical_egress_stages, std::nullopt);
  metadata_proto_ = arch::Metadata::Standard();
  design_ = arch::DesignConfig{};
  loaded_ = false;
  ++config_epoch_;
}

Status PisaSwitch::LoadDesign(const arch::DesignConfig& design) {
  auto t0 = std::chrono::steady_clock::now();
  if (design.ingress_stages.size() > options_.physical_ingress_stages) {
    return ResourceExhausted(
        "design needs more ingress stages than the chip has");
  }
  if (design.egress_stages.size() > options_.physical_egress_stages) {
    return ResourceExhausted(
        "design needs more egress stages than the chip has");
  }
  Reset();

  // Rebuild the whole device from the monolithic config.
  for (const auto& m : design.metadata) {
    IPSA_RETURN_IF_ERROR(metadata_proto_.Declare(m.name, m.width_bits));
  }
  for (const auto& a : design.actions) {
    IPSA_RETURN_IF_ERROR(actions_.Add(a));
  }
  for (const auto& r : design.registers) {
    IPSA_RETURN_IF_ERROR(regs_.Create(r.name, r.size));
  }

  // Tables are prorated: a logical stage's tables live in the cluster of
  // the physical stage it maps to. Build a table -> stage index first.
  std::map<std::string, uint32_t> table_stage;
  for (size_t i = 0; i < design.ingress_stages.size(); ++i) {
    for (const auto& rule : design.ingress_stages[i].matcher) {
      if (!rule.table.empty()) {
        table_stage[rule.table] = static_cast<uint32_t>(i);
      }
    }
  }
  for (size_t i = 0; i < design.egress_stages.size(); ++i) {
    for (const auto& rule : design.egress_stages[i].matcher) {
      if (!rule.table.empty()) {
        table_stage[rule.table] =
            options_.physical_ingress_stages + static_cast<uint32_t>(i);
      }
    }
  }
  for (const auto& t : design.tables) {
    auto it = table_stage.find(t.spec.name);
    std::optional<uint32_t> cluster;
    if (it != table_stage.end()) cluster = it->second;
    Status s = catalog_.CreateTable(t.spec, t.binding, cluster);
    if (!s.ok()) {
      Reset();
      return s;
    }
  }

  for (size_t i = 0; i < design.ingress_stages.size(); ++i) {
    ingress_[i] = design.ingress_stages[i];
  }
  for (size_t i = 0; i < design.egress_stages.size(); ++i) {
    egress_[i] = design.egress_stages[i];
  }

  design_ = design;
  loaded_ = true;
  stats_.full_loads += 1;
  stats_.config_words_written += design.TotalConfigWords();
  telemetry_.OnUpdateWindow(
      config_epoch_,
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count());
  IPSA_LOG(kInfo) << "pbm: loaded design '" << design.name << "' ("
                  << design.TotalConfigWords() << " config words)";
  return OkStatus();
}

Status PisaSwitch::LoadDesignJson(std::string_view json_text) {
  IPSA_ASSIGN_OR_RETURN(util::Json json, util::Json::Parse(json_text));
  IPSA_ASSIGN_OR_RETURN(arch::DesignConfig design,
                        arch::DesignConfig::FromJson(json));
  return LoadDesign(design);
}

Status PisaSwitch::AddEntry(const std::string& table,
                            const table::Entry& entry, bool upsert) {
  IPSA_ASSIGN_OR_RETURN(table::MatchTable * t, catalog_.Get(table));
  ++stats_.table_ops;
  ++stats_.config_words_written;  // one control-channel write per entry op
  return upsert ? t->Insert(entry) : t->InsertUnique(entry);
}

Status PisaSwitch::EraseEntry(const std::string& table,
                              const table::Entry& entry) {
  IPSA_ASSIGN_OR_RETURN(table::MatchTable * t, catalog_.Get(table));
  ++stats_.table_ops;
  ++stats_.config_words_written;
  return t->Erase(entry);
}

Status PisaSwitch::BeginEntryBatch(const std::string& table) {
  IPSA_ASSIGN_OR_RETURN(table::MatchTable * t, catalog_.Get(table));
  t->BeginBatch();
  return OkStatus();
}

Status PisaSwitch::EndEntryBatch(const std::string& table) {
  IPSA_ASSIGN_OR_RETURN(table::MatchTable * t, catalog_.Get(table));
  t->EndBatch();
  return OkStatus();
}

void PisaSwitch::EnsureCompiled() {
  CompiledKey key{.epoch = config_epoch_,
                  .catalog = catalog_.version(),
                  .actions = actions_.version()};
  if (key == compiled_key_) return;

  design_uses_registers_ = false;
  stats_.interpreted_stages = 0;
  auto compile_side =
      [this](const std::vector<std::optional<arch::StageProgram>>& side,
             std::vector<std::optional<arch::CompiledStage>>& out) {
        out.clear();
        out.resize(side.size());
        for (size_t i = 0; i < side.size(); ++i) {
          if (!side[i].has_value()) continue;
          if (exec_mode_ == arch::ExecMode::kInterpret) {
            design_uses_registers_ |=
                arch::StageMayUseRegisters(*side[i], actions_);
            continue;
          }
          auto compiled = arch::CompileStage(*side[i], catalog_, actions_,
                                             design_.headers, metadata_proto_);
          if (compiled.ok()) {
            design_uses_registers_ |= compiled->uses_registers;
            out[i] = std::move(compiled).value();
          } else {
            // Interpreter fallback for this stage.
            design_uses_registers_ |=
                arch::StageMayUseRegisters(*side[i], actions_);
            ++stats_.interpreted_stages;
          }
        }
      };
  compile_side(ingress_, compiled_ingress_);
  compile_side(egress_, compiled_egress_);

  // Lower the physical stage array into the straight-line plan: active
  // stages become groups (carrying any preceding empty stages' traversal
  // cycles), trailing empties become the side's tail charge.
  plan_ = arch::PipelinePlan{};
  plan_valid_ = exec_mode_ == arch::ExecMode::kSpecialize;
  if (plan_valid_) {
    auto plan_side =
        [](const std::vector<std::optional<arch::StageProgram>>& side,
           const std::vector<std::optional<arch::CompiledStage>>& compiled,
           uint32_t base_index, std::vector<arch::PlanGroup>& groups,
           uint32_t& tail_cycles) {
          uint32_t gap = 0;
          for (size_t i = 0; i < side.size(); ++i) {
            if (!side[i].has_value()) {
              ++gap;
              continue;
            }
            arch::PlanGroup group;
            group.unit = base_index + static_cast<uint32_t>(i);
            group.entry_cycles = 1 + gap;
            gap = 0;
            group.programs.push_back(arch::PlanProgram{
                compiled[i].has_value() ? &*compiled[i] : nullptr,
                &*side[i], group.unit});
            groups.push_back(std::move(group));
          }
          tail_cycles = gap;
        };
    plan_side(ingress_, compiled_ingress_, 0, plan_.ingress,
              plan_.ingress_tail_cycles);
    plan_side(egress_, compiled_egress_, options_.physical_ingress_stages,
              plan_.egress, plan_.egress_tail_cycles);
    plan_.tm_cycles = 0;       // PISA's TM is free in the cycle model
    plan_.jit_parse = false;   // the front parser ran before the walk
    plan_.per_group_ii = false;
  }

  ingress_port_slot_ = metadata_proto_.SlotOf("ingress_port");
  scratch_ctx_.metadata() = metadata_proto_;
  compiled_key_ = key;

  // Publish the stage layout so telemetry slots carry logical names. One
  // slot per physical stage position, ingress first (matching base_index).
  std::vector<telemetry::StageInfo> infos;
  infos.reserve(ingress_.size() + egress_.size());
  for (size_t i = 0; i < ingress_.size(); ++i) {
    infos.push_back(telemetry::StageInfo{
        static_cast<uint32_t>(i),
        ingress_[i].has_value() ? ingress_[i]->name : std::string()});
  }
  for (size_t i = 0; i < egress_.size(); ++i) {
    infos.push_back(telemetry::StageInfo{
        options_.physical_ingress_stages + static_cast<uint32_t>(i),
        egress_[i].has_value() ? egress_[i]->name : std::string()});
  }
  telemetry_.SetStages(std::move(infos));
}

Result<ProcessResult> PisaSwitch::ProcessCore(net::Packet& packet,
                                              uint32_t in_port,
                                              arch::PacketContext& ctx,
                                              DeviceStats& stats,
                                              telemetry::MetricsShard* tshard,
                                              ProcessTrace* trace) {
  if (!loaded_) return FailedPrecondition("pbm: no design loaded");
  ++stats.packets_in;

  ctx.Rebind(packet, design_.headers);
  ctx.metadata().Reset();
  ctx.metadata().SlotWriteUint(ingress_port_slot_, in_port);

  // Standalone front-end parser: extract everything up front (§2.1 contrast).
  IPSA_ASSIGN_OR_RETURN(arch::ParseStats ps, arch::ParseEngine::ParseAll(ctx));

  ProcessResult result;
  result.headers_parsed = ps.headers_parsed;
  uint64_t parsed_bytes = 0;
  for (const auto& h : ctx.phv().instances()) {
    if (h.valid) parsed_bytes += h.size_bytes;
  }
  result.pipeline_ii =
      std::max(arch::PisaParserIi(parsed_bytes), arch::PisaStageIi());

  if (trace != nullptr) {
    for (const auto& h : ctx.phv().instances()) {
      if (h.valid) trace->parsed_headers.push_back(h.name());
    }
  }

  if (plan_valid_) {
    // Specialized walk: pick the observer instantiation once, so the
    // telemetry/trace branches vanish from the per-stage loop.
    Result<arch::PlanRunStats> ran = InternalError("unreachable");
    if (trace != nullptr) {
      ran = arch::RunPlan(plan_, ctx, catalog_, actions_, &regs_,
                          telemetry::PlanTraceObserver{tshard, trace});
    } else if (tshard != nullptr) {
      ran = arch::RunPlan(plan_, ctx, catalog_, actions_, &regs_,
                          telemetry::PlanShardObserver{tshard});
    } else {
      ran = arch::RunPlan(plan_, ctx, catalog_, actions_, &regs_,
                          arch::PlanNullObserver{});
    }
    IPSA_RETURN_IF_ERROR(ran.status());

    result.dropped = ctx.dropped();
    result.marked = ctx.marked();
    result.egress_port = ctx.egress_spec();
    result.cycles = ctx.cycles();
    stats.total_cycles += ctx.cycles();
    if (result.dropped) {
      ++stats.packets_dropped;
    } else {
      ++stats.packets_out;
    }
    if (result.marked) ++stats.packets_marked;
    if (tshard != nullptr) tshard->OnResult(in_port, result);
    return result;
  }

  // All physical ingress stages are traversed in order whether or not they
  // hold a program — non-functional stages still cost a cycle of latency
  // (the elastic-pipeline motivation in §2.3).
  auto run_side = [&](std::vector<std::optional<arch::StageProgram>>& side,
                      std::vector<std::optional<arch::CompiledStage>>& compiled,
                      uint32_t base_index) -> Status {
    for (size_t i = 0; i < side.size(); ++i) {
      ctx.ChargeCycles(1);
      if (!side[i].has_value()) continue;
      arch::StageRunStats run_stats;
      if (compiled[i].has_value()) {
        IPSA_ASSIGN_OR_RETURN(
            run_stats,
            RunCompiledStage(*compiled[i], ctx, &regs_, /*jit_parse=*/false,
                             /*fill_names=*/trace != nullptr));
      } else {
        IPSA_ASSIGN_OR_RETURN(run_stats,
                              RunStage(*side[i], ctx, catalog_, actions_,
                                       &regs_, /*jit_parse=*/false));
      }
      if (tshard != nullptr) {
        tshard->OnStage(base_index + static_cast<uint32_t>(i),
                        run_stats.table_applied, run_stats.hit);
      }
      if (trace != nullptr) {
        trace->steps.push_back(TraceStep{
            .unit = base_index + static_cast<uint32_t>(i),
            .stage = side[i]->name,
            .table = std::string(run_stats.applied_table),
            .hit = run_stats.hit,
            .action = std::string(run_stats.executed_action),
            .parse_bytes = 0});
      }
      if (ctx.dropped()) break;
    }
    return OkStatus();
  };
  IPSA_RETURN_IF_ERROR(run_side(ingress_, compiled_ingress_, 0));
  if (!ctx.dropped()) {
    IPSA_RETURN_IF_ERROR(run_side(egress_, compiled_egress_,
                                  options_.physical_ingress_stages));
  }

  result.dropped = ctx.dropped();
  result.marked = ctx.marked();
  result.egress_port = ctx.egress_spec();
  result.cycles = ctx.cycles();
  stats.total_cycles += ctx.cycles();
  if (result.dropped) {
    ++stats.packets_dropped;
  } else {
    ++stats.packets_out;
  }
  if (result.marked) ++stats.packets_marked;
  if (tshard != nullptr) tshard->OnResult(in_port, result);
  return result;
}

Result<ProcessResult> PisaSwitch::ProcessSampled(
    net::Packet& packet, uint32_t in_port, arch::PacketContext& ctx,
    DeviceStats& stats, telemetry::MetricsShard* tshard, ProcessTrace* trace) {
  if (trace == nullptr && telemetry_.ShouldTrace(in_port)) {
    ProcessTrace sampled;
    auto result = ProcessCore(packet, in_port, ctx, stats, tshard, &sampled);
    if (result.ok()) {
      telemetry_.CommitTrace(config_epoch_, in_port, *result,
                             std::move(sampled));
    }
    return result;
  }
  return ProcessCore(packet, in_port, ctx, stats, tshard, trace);
}

Result<ProcessResult> PisaSwitch::Process(net::Packet& packet,
                                          uint32_t in_port,
                                          ProcessTrace* trace) {
  EnsureCompiled();
  // One RCU pin for the packet; each lookup's own guard then only nests.
  table::rcu::Domain::ReadGuard pin(table::rcu::Domain::Global());
  return ProcessSampled(packet, in_port, scratch_ctx_, stats_,
                        telemetry_.shard(), trace);
}

Result<std::vector<ProcessResult>> PisaSwitch::ProcessBatch(
    std::span<net::Packet> packets, uint32_t in_port) {
  EnsureCompiled();
  // One RCU pin for the whole batch; each lookup's own guard then only
  // nests. Retired table views wait for the batch to end.
  table::rcu::Domain::ReadGuard pin(table::rcu::Domain::Global());
  telemetry::MetricsShard* tshard = telemetry_.shard();
  std::vector<ProcessResult> out;
  out.reserve(packets.size());
  for (net::Packet& packet : packets) {
    IPSA_ASSIGN_OR_RETURN(ProcessResult r,
                          ProcessSampled(packet, in_port, scratch_ctx_, stats_,
                                         tshard, nullptr));
    out.push_back(r);
  }
  return out;
}

Result<uint32_t> PisaSwitch::RunToCompletion(uint32_t workers) {
  EnsureCompiled();
  // Register read-modify-write order across packets is observable; designs
  // that touch the register file run single-worker so results stay identical
  // to the serial drain.
  if (design_uses_registers_) workers = 1;
  if (workers <= 1) {
    table::rcu::Domain::ReadGuard pin(table::rcu::Domain::Global());
    telemetry::MetricsShard* tshard = telemetry_.shard();
    uint32_t processed = 0;
    for (uint32_t p = 0; p < ports_.count(); ++p) {
      while (auto packet = ports_.port(p).rx().Pop()) {
        IPSA_ASSIGN_OR_RETURN(ProcessResult r,
                              ProcessSampled(*packet, p, scratch_ctx_, stats_,
                                             tshard, nullptr));
        if (!r.dropped && r.egress_port < ports_.count()) {
          ports_.port(r.egress_port).tx().Push(std::move(*packet));
        }
        ++processed;
      }
    }
    return processed;
  }

  std::vector<arch::PacketContext> ctxs(workers);
  std::vector<DeviceStats> worker_stats(workers);
  // Telemetry shards mirror the DeviceStats pattern: each worker fills its
  // own shard without atomics; the master absorbs them after the join, so
  // the merged totals equal a serial drain exactly.
  std::vector<telemetry::MetricsShard> worker_shards;
  if (telemetry_.enabled()) worker_shards = telemetry_.MakeWorkerShards(workers);
  for (arch::PacketContext& c : ctxs) c.metadata() = metadata_proto_;
  IPSA_ASSIGN_OR_RETURN(
      uint32_t processed,
      DrainPortsSharded(ports_, workers,
                        [&](net::Packet& packet, uint32_t in_port,
                            uint32_t worker) {
                          return ProcessSampled(
                              packet, in_port, ctxs[worker],
                              worker_stats[worker],
                              worker_shards.empty() ? nullptr
                                                    : &worker_shards[worker],
                              nullptr);
                        }));
  for (const DeviceStats& s : worker_stats) stats_.MergeFrom(s);
  telemetry_.MergeWorkerShards(worker_shards);
  return processed;
}

std::string PisaSwitch::PlanToString() {
  EnsureCompiled();
  return plan_valid_ ? plan_.ToString() : std::string();
}

uint32_t PisaSwitch::ActiveIngressStages() const {
  uint32_t n = 0;
  for (const auto& s : ingress_) {
    if (s.has_value()) ++n;
  }
  return n;
}

uint32_t PisaSwitch::ActiveEgressStages() const {
  uint32_t n = 0;
  for (const auto& s : egress_) {
    if (s.has_value()) ++n;
  }
  return n;
}

}  // namespace ipsa::pisa
