#include "ipsa/ipbm.h"

#include <chrono>

#include "arch/ii_model.h"
#include "arch/parse_engine.h"
#include "pisa/executor.h"
#include "table/rcu.h"
#include "telemetry/plan_observers.h"
#include "util/logging.h"

namespace ipsa::ipbm {

namespace {

mem::PoolConfig MakePoolConfig(const IpbmOptions& o) {
  mem::PoolConfig cfg;
  cfg.sram_blocks = o.sram_blocks;
  cfg.tcam_blocks = o.tcam_blocks;
  cfg.sram_width_bits = o.sram_width_bits;
  cfg.sram_depth = o.sram_depth;
  cfg.tcam_width_bits = o.tcam_width_bits;
  cfg.tcam_depth = o.tcam_depth;
  cfg.clusters = o.clusters;
  return cfg;
}

}  // namespace

IpbmSwitch::IpbmSwitch(const IpbmOptions& options)
    : options_(options),
      pool_(MakePoolConfig(options)),
      xbar_(options.crossbar, options.tsp_count, options.clusters),
      catalog_(pool_),
      metadata_proto_(arch::Metadata::Standard()),
      pipeline_(options.tsp_count),
      ports_(options.port_count) {}

Status IpbmSwitch::AddHeaderType(const arch::HeaderTypeDef& def) {
  IPSA_RETURN_IF_ERROR(registry_.Add(def));
  ChargeConfigWords(2 + def.fields().size() + def.links().size());
  BumpStructuralEpoch();
  return OkStatus();
}

Status IpbmSwitch::RemoveHeaderType(const std::string& name) {
  IPSA_RETURN_IF_ERROR(registry_.Remove(name));
  ChargeConfigWords(1);
  BumpStructuralEpoch();
  return OkStatus();
}

Status IpbmSwitch::LinkHeader(const std::string& pre, const std::string& next,
                              uint64_t tag) {
  IPSA_RETURN_IF_ERROR(registry_.LinkHeader(pre, next, tag));
  ChargeConfigWords(1);
  BumpStructuralEpoch();
  return OkStatus();
}

Status IpbmSwitch::UnlinkHeader(const std::string& pre, uint64_t tag) {
  IPSA_RETURN_IF_ERROR(registry_.UnlinkHeader(pre, tag));
  ChargeConfigWords(1);
  BumpStructuralEpoch();
  return OkStatus();
}

Status IpbmSwitch::DeclareMetadata(const std::string& name,
                                   uint32_t width_bits) {
  IPSA_RETURN_IF_ERROR(metadata_proto_.Declare(name, width_bits));
  ChargeConfigWords(1);
  BumpStructuralEpoch();
  return OkStatus();
}

Status IpbmSwitch::AddAction(const arch::ActionDef& def) {
  IPSA_RETURN_IF_ERROR(actions_.Add(def));
  ChargeConfigWords(2 + def.params.size() + def.body.size() * 2);
  BumpStructuralEpoch();
  return OkStatus();
}

Status IpbmSwitch::RemoveAction(const std::string& name) {
  IPSA_RETURN_IF_ERROR(actions_.Remove(name));
  ChargeConfigWords(1);
  BumpStructuralEpoch();
  return OkStatus();
}

Status IpbmSwitch::CreateRegister(const std::string& name, uint32_t size) {
  IPSA_RETURN_IF_ERROR(regs_.Create(name, size));
  ChargeConfigWords(1);
  BumpStructuralEpoch();
  return OkStatus();
}

Status IpbmSwitch::DestroyRegister(const std::string& name) {
  IPSA_RETURN_IF_ERROR(regs_.Destroy(name));
  ChargeConfigWords(1);
  BumpStructuralEpoch();
  return OkStatus();
}

Status IpbmSwitch::CreateTable(const arch::TableDecl& decl) {
  IPSA_RETURN_IF_ERROR(catalog_.CreateTable(decl.spec, decl.binding));
  ChargeConfigWords(4);
  BumpStructuralEpoch();
  return OkStatus();
}

Status IpbmSwitch::DestroyTable(const std::string& name) {
  // Recycles the table's pool blocks (§2.4) and any crossbar routes pointing
  // at them are stale; re-routing happens on the next template write of the
  // affected TSPs.
  IPSA_RETURN_IF_ERROR(catalog_.DestroyTable(name));
  ChargeConfigWords(1);
  BumpStructuralEpoch();
  return OkStatus();
}

Status IpbmSwitch::RouteCrossbarFor(uint32_t tsp_id) {
  xbar_.DisconnectProc(tsp_id);
  for (const std::string& table : pipeline_.tsp(tsp_id).ReferencedTables()) {
    IPSA_ASSIGN_OR_RETURN(table::MatchTable * t, catalog_.Get(table));
    IPSA_RETURN_IF_ERROR(t->ConnectTo(xbar_, tsp_id));
  }
  return OkStatus();
}

Status IpbmSwitch::WriteTspTemplate(uint32_t tsp_id, TspRole role,
                                    std::vector<arch::StageProgram> programs) {
  if (tsp_id >= pipeline_.tsp_count()) return OutOfRange("bad TSP id");
  // Validate referenced tables and actions exist *before* draining.
  for (const auto& p : programs) {
    for (const auto& rule : p.matcher) {
      if (!rule.table.empty() && !catalog_.Has(rule.table)) {
        return FailedPrecondition("template references missing table '" +
                                  rule.table + "'");
      }
    }
    for (const auto& [tag, action] : p.executor) {
      if (!actions_.Has(action)) {
        return FailedPrecondition("template references missing action '" +
                                  action + "'");
      }
    }
  }
  // Drain through backpressure, then rewrite (paper §2.3).
  auto t0 = std::chrono::steady_clock::now();
  telemetry_.OnDrainWindow(pipeline_.Drain());
  uint32_t words = pipeline_.tsp(tsp_id).WriteTemplate(std::move(programs));
  IPSA_RETURN_IF_ERROR(pipeline_.SetRole(tsp_id, role));
  IPSA_RETURN_IF_ERROR(RouteCrossbarFor(tsp_id));
  // Re-decode the software indexes of every table the rewritten TSP
  // references: an in-situ update re-binds storage routes, and the decoded
  // caches must never serve bits the pool no longer holds.
  for (const std::string& table : pipeline_.tsp(tsp_id).ReferencedTables()) {
    if (auto t = catalog_.Get(table); t.ok()) (*t)->RefreshCache();
  }
  ChargeConfigWords(words + 1);  // template + selector word
  ++stats_.template_writes;
  BumpStructuralEpoch();
  RecordUpdateWindow(t0);
  return OkStatus();
}

Status IpbmSwitch::ClearTsp(uint32_t tsp_id) {
  if (tsp_id >= pipeline_.tsp_count()) return OutOfRange("bad TSP id");
  auto t0 = std::chrono::steady_clock::now();
  telemetry_.OnDrainWindow(pipeline_.Drain());
  pipeline_.tsp(tsp_id).ClearTemplate();
  IPSA_RETURN_IF_ERROR(pipeline_.SetRole(tsp_id, TspRole::kBypass));
  xbar_.DisconnectProc(tsp_id);
  ChargeConfigWords(2);
  ++stats_.template_writes;
  BumpStructuralEpoch();
  RecordUpdateWindow(t0);
  return OkStatus();
}

// Runtime entry ops are CCM commands like any other, so they advance
// config_epoch_ (snapshots and traces across a group mutation must see it
// move). Unlike structural commands they leave structural_epoch_ — and thus
// the compiled fast path — untouched: lookups read table content live
// through the RCU-published indexes, so entry churn may run concurrently
// with packet workers.
Status IpbmSwitch::AddEntry(const std::string& table,
                            const table::Entry& entry, bool upsert) {
  IPSA_ASSIGN_OR_RETURN(table::MatchTable * t, catalog_.Get(table));
  ++stats_.table_ops;
  ChargeConfigWords(1);
  config_epoch_.fetch_add(1, std::memory_order_relaxed);
  return upsert ? t->Insert(entry) : t->InsertUnique(entry);
}

Status IpbmSwitch::EraseEntry(const std::string& table,
                              const table::Entry& entry) {
  IPSA_ASSIGN_OR_RETURN(table::MatchTable * t, catalog_.Get(table));
  ++stats_.table_ops;
  ChargeConfigWords(1);
  config_epoch_.fetch_add(1, std::memory_order_relaxed);
  return t->Erase(entry);
}

Status IpbmSwitch::BeginEntryBatch(const std::string& table) {
  IPSA_ASSIGN_OR_RETURN(table::MatchTable * t, catalog_.Get(table));
  t->BeginBatch();
  return OkStatus();
}

Status IpbmSwitch::EndEntryBatch(const std::string& table) {
  IPSA_ASSIGN_OR_RETURN(table::MatchTable * t, catalog_.Get(table));
  t->EndBatch();
  return OkStatus();
}

Status IpbmSwitch::LoadBaseDesign(const arch::DesignConfig& design,
                                  const std::vector<TspAssignment>& assignments) {
  for (const auto& name : design.headers.TypeNames()) {
    IPSA_ASSIGN_OR_RETURN(const arch::HeaderTypeDef* def,
                          design.headers.Get(name));
    IPSA_RETURN_IF_ERROR(AddHeaderType(*def));
  }
  registry_.SetEntryType(design.headers.entry_type());
  for (const auto& m : design.metadata) {
    IPSA_RETURN_IF_ERROR(DeclareMetadata(m.name, m.width_bits));
  }
  for (const auto& a : design.actions) {
    IPSA_RETURN_IF_ERROR(AddAction(a));
  }
  for (const auto& r : design.registers) {
    IPSA_RETURN_IF_ERROR(CreateRegister(r.name, r.size));
  }
  for (const auto& t : design.tables) {
    IPSA_RETURN_IF_ERROR(CreateTable(t));
  }
  for (const auto& assign : assignments) {
    std::vector<arch::StageProgram> programs;
    programs.reserve(assign.stage_names.size());
    for (const auto& stage_name : assign.stage_names) {
      const arch::StageProgram* stage = design.FindStage(stage_name);
      if (stage == nullptr) {
        return NotFound("assignment references unknown stage '" + stage_name +
                        "'");
      }
      programs.push_back(*stage);
    }
    IPSA_RETURN_IF_ERROR(
        WriteTspTemplate(assign.tsp_id, assign.role, std::move(programs)));
  }
  IPSA_LOG(kInfo) << "ipbm: base design '" << design.name << "' loaded onto "
                  << assignments.size() << " TSPs";
  return OkStatus();
}

void IpbmSwitch::RecordUpdateWindow(
    std::chrono::steady_clock::time_point start) {
  telemetry_.OnUpdateWindow(
      config_epoch(), std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count());
}

IpbmSwitch::CompiledKey IpbmSwitch::CurrentKey() const {
  uint64_t pipeline_version = 0;
  for (uint32_t i = 0; i < pipeline_.tsp_count(); ++i) {
    pipeline_version += pipeline_.tsp(i).config_version();
  }
  return CompiledKey{.epoch = structural_epoch_,
                     .registry = registry_.version(),
                     .catalog = catalog_.version(),
                     .actions = actions_.version(),
                     .pipeline = pipeline_version};
}

void IpbmSwitch::EnsureCompiled() {
  CompiledKey key = CurrentKey();
  if (key == compiled_key_) return;

  compiled_tsps_.clear();
  compiled_tsps_.resize(pipeline_.tsp_count());
  stats_.interpreted_stages = 0;
  for (uint32_t id = 0; id < pipeline_.tsp_count(); ++id) {
    for (const arch::StageProgram& program : pipeline_.tsp(id).programs()) {
      CompiledProgram cp;
      cp.source = &program;
      if (exec_mode_ == arch::ExecMode::kInterpret) {
        cp.uses_registers = arch::StageMayUseRegisters(program, actions_);
        compiled_tsps_[id].push_back(std::move(cp));
        continue;
      }
      auto compiled = arch::CompileStage(program, catalog_, actions_,
                                         registry_, metadata_proto_);
      if (compiled.ok()) {
        cp.uses_registers = compiled->uses_registers;
        cp.compiled = std::move(compiled).value();
      } else {
        cp.uses_registers = arch::StageMayUseRegisters(program, actions_);
        ++stats_.interpreted_stages;
      }
      compiled_tsps_[id].push_back(std::move(cp));
    }
  }

  ingress_ids_ = pipeline_.IngressIds();
  egress_ids_ = pipeline_.EgressIds();
  pipeline_uses_registers_ = false;
  for (const std::vector<uint32_t>* side : {&ingress_ids_, &egress_ids_}) {
    for (uint32_t id : *side) {
      for (const CompiledProgram& cp : compiled_tsps_[id]) {
        pipeline_uses_registers_ |= cp.uses_registers;
      }
    }
  }

  ingress_port_slot_ = metadata_proto_.SlotOf("ingress_port");
  scratch_ctx_.metadata() = metadata_proto_;
  compiled_key_ = key;

  // Telemetry stage slots: the TSP programs flattened in id order. A TSP's
  // programs occupy tsp_slot_base_[id] .. +size; an unchanged layout keeps
  // its counters across recompiles (Collector::SetStages decides).
  tsp_slot_base_.assign(pipeline_.tsp_count(), 0);
  std::vector<telemetry::StageInfo> infos;
  for (uint32_t id = 0; id < pipeline_.tsp_count(); ++id) {
    tsp_slot_base_[id] = static_cast<uint32_t>(infos.size());
    for (const CompiledProgram& cp : compiled_tsps_[id]) {
      infos.push_back(telemetry::StageInfo{id, cp.source->name});
    }
  }
  telemetry_.SetStages(std::move(infos));

  // Lower the elastic pipeline into the straight-line plan: only the active
  // TSPs of each side appear, in traversal order, each charging its fixed
  // 2-cycle entry (stage traversal + template-parameter load).
  plan_ = arch::PipelinePlan{};
  plan_valid_ = exec_mode_ == arch::ExecMode::kSpecialize;
  if (plan_valid_) {
    auto plan_side = [this](const std::vector<uint32_t>& ids,
                            std::vector<arch::PlanGroup>& groups) {
      for (uint32_t id : ids) {
        arch::PlanGroup group;
        group.unit = id;
        group.entry_cycles = 1 + 1;
        uint32_t slot = tsp_slot_base_[id];
        for (const CompiledProgram& cp : compiled_tsps_[id]) {
          group.programs.push_back(arch::PlanProgram{
              cp.compiled.has_value() ? &*cp.compiled : nullptr, cp.source,
              slot});
          ++slot;
        }
        groups.push_back(std::move(group));
      }
    };
    plan_side(ingress_ids_, plan_.ingress);
    plan_side(egress_ids_, plan_.egress);
    plan_.tm_cycles = 1;      // traffic manager between the sides
    plan_.jit_parse = true;   // TSPs parse just-in-time
    plan_.per_group_ii = true;
  }
}

Result<telemetry::ProcessResult> IpbmSwitch::ProcessCore(
    net::Packet& packet, uint32_t in_port, arch::PacketContext& ctx,
    telemetry::DeviceStats& stats, telemetry::MetricsShard* tshard,
    telemetry::ProcessTrace* trace) {
  ++stats.packets_in;
  ctx.Rebind(packet, registry_);
  ctx.metadata().Reset();
  ctx.metadata().SlotWriteUint(ingress_port_slot_, in_port);

  telemetry::ProcessResult result;

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
    result.pipeline_ii = ran->worst_ii;
  } else {
    // Bypassed TSPs are excluded from the physical pipeline entirely — no
    // latency, no power (§2.3). Each active TSP charges one extra cycle for
    // loading its per-packet template parameters (§5 Throughput). The
    // packet's pipeline II is the slowest TSP it traverses
    // (arch/ii_model.h).
    double worst_ii = 1.0;
    auto run_tsp = [&](uint32_t id) -> Status {
      ctx.ChargeCycles(1 + 1);  // stage traversal + template-parameter load
      uint64_t tsp_parse_bytes = 0;
      uint64_t tsp_access = 0;
      uint32_t slot = tsp_slot_base_[id];
      for (const CompiledProgram& cp : compiled_tsps_[id]) {
        arch::StageRunStats run_stats;
        if (cp.compiled.has_value()) {
          IPSA_ASSIGN_OR_RETURN(
              run_stats,
              RunCompiledStage(*cp.compiled, ctx, &regs_, /*jit_parse=*/true,
                               /*fill_names=*/trace != nullptr));
        } else {
          // Unresolvable references at compile time: interpreter fallback.
          IPSA_ASSIGN_OR_RETURN(run_stats,
                                RunStage(*cp.source, ctx, catalog_, actions_,
                                         &regs_, /*jit_parse=*/true));
        }
        tsp_parse_bytes += run_stats.parse_bytes;
        tsp_access = std::max(tsp_access, run_stats.access_cycles);
        if (tshard != nullptr) {
          tshard->OnStage(slot, run_stats.table_applied, run_stats.hit);
        }
        ++slot;
        if (trace != nullptr) {
          trace->steps.push_back(telemetry::TraceStep{
              .unit = id,
              .stage = cp.source->name,
              .table = std::string(run_stats.applied_table),
              .hit = run_stats.hit,
              .action = std::string(run_stats.executed_action),
              .parse_bytes = run_stats.parse_bytes});
        }
        if (ctx.dropped()) break;
      }
      worst_ii =
          std::max(worst_ii, arch::IpsaTspIi(tsp_parse_bytes, tsp_access));
      return OkStatus();
    };
    for (uint32_t id : ingress_ids_) {
      IPSA_RETURN_IF_ERROR(run_tsp(id));
      if (ctx.dropped()) break;
    }
    if (!ctx.dropped()) {
      // Traffic manager: one cycle of queueing model.
      ctx.ChargeCycles(1);
      for (uint32_t id : egress_ids_) {
        IPSA_RETURN_IF_ERROR(run_tsp(id));
        if (ctx.dropped()) break;
      }
    }
    result.pipeline_ii = worst_ii;
  }

  result.dropped = ctx.dropped();
  result.marked = ctx.marked();
  result.egress_port = ctx.egress_spec();
  result.cycles = ctx.cycles();
  for (const auto& h : ctx.phv().instances()) {
    if (h.valid) ++result.headers_parsed;
    if (trace != nullptr && h.valid) trace->parsed_headers.push_back(h.name());
  }
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

Result<telemetry::ProcessResult> IpbmSwitch::ProcessSampled(
    net::Packet& packet, uint32_t in_port, arch::PacketContext& ctx,
    telemetry::DeviceStats& stats, telemetry::MetricsShard* tshard,
    telemetry::ProcessTrace* trace) {
  if (trace == nullptr && telemetry_.ShouldTrace(in_port)) {
    telemetry::ProcessTrace sampled;
    auto result = ProcessCore(packet, in_port, ctx, stats, tshard, &sampled);
    if (result.ok()) {
      telemetry_.CommitTrace(config_epoch(), in_port, *result,
                             std::move(sampled));
    }
    return result;
  }
  return ProcessCore(packet, in_port, ctx, stats, tshard, trace);
}

Result<telemetry::ProcessResult> IpbmSwitch::Process(net::Packet& packet,
                                                uint32_t in_port,
                                                telemetry::ProcessTrace* trace) {
  EnsureCompiled();
  // One RCU pin for the packet; each lookup's own guard then only nests.
  table::rcu::Domain::ReadGuard pin(table::rcu::Domain::Global());
  return ProcessSampled(packet, in_port, scratch_ctx_, stats_,
                        telemetry_.shard(), trace);
}

Result<std::vector<telemetry::ProcessResult>> IpbmSwitch::ProcessBatch(
    std::span<net::Packet> packets, uint32_t in_port) {
  EnsureCompiled();
  // One RCU pin for the whole batch; each lookup's own guard then only
  // nests. Retired table views wait for the batch to end.
  table::rcu::Domain::ReadGuard pin(table::rcu::Domain::Global());
  telemetry::MetricsShard* tshard = telemetry_.shard();
  std::vector<telemetry::ProcessResult> out;
  out.reserve(packets.size());
  for (net::Packet& packet : packets) {
    IPSA_ASSIGN_OR_RETURN(telemetry::ProcessResult r,
                          ProcessSampled(packet, in_port, scratch_ctx_, stats_,
                                         tshard, nullptr));
    out.push_back(r);
  }
  return out;
}

Result<uint32_t> IpbmSwitch::RunToCompletion(uint32_t workers) {
  EnsureCompiled();
  // Register read-modify-write order across packets is observable (e.g. the
  // flow-probe counters); a register-touching pipeline runs single-worker so
  // results stay identical to the serial drain.
  if (pipeline_uses_registers_) workers = 1;
  if (workers <= 1) {
    table::rcu::Domain::ReadGuard pin(table::rcu::Domain::Global());
    telemetry::MetricsShard* tshard = telemetry_.shard();
    uint32_t processed = 0;
    for (uint32_t p = 0; p < ports_.count(); ++p) {
      while (auto packet = ports_.port(p).rx().Pop()) {
        IPSA_ASSIGN_OR_RETURN(telemetry::ProcessResult r,
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
  std::vector<telemetry::DeviceStats> worker_stats(workers);
  // Telemetry shards mirror the DeviceStats pattern: worker-local, no
  // atomics, merged after the join so totals equal a serial drain exactly.
  std::vector<telemetry::MetricsShard> worker_shards;
  if (telemetry_.enabled()) worker_shards = telemetry_.MakeWorkerShards(workers);
  for (arch::PacketContext& c : ctxs) c.metadata() = metadata_proto_;
  IPSA_ASSIGN_OR_RETURN(
      uint32_t processed,
      pisa::DrainPortsSharded(
          ports_, workers,
          [&](net::Packet& packet, uint32_t in_port, uint32_t worker) {
            return ProcessSampled(packet, in_port, ctxs[worker],
                                  worker_stats[worker],
                                  worker_shards.empty() ? nullptr
                                                        : &worker_shards[worker],
                                  nullptr);
          }));
  for (const telemetry::DeviceStats& s : worker_stats) stats_.MergeFrom(s);
  telemetry_.MergeWorkerShards(worker_shards);
  return processed;
}

std::string IpbmSwitch::PlanToString() {
  EnsureCompiled();
  return plan_valid_ ? plan_.ToString() : std::string();
}

int32_t IpbmSwitch::TspOfStage(std::string_view stage_name) const {
  for (uint32_t i = 0; i < pipeline_.tsp_count(); ++i) {
    for (const auto& p : pipeline_.tsp(i).programs()) {
      if (p.name == stage_name) return static_cast<int32_t>(i);
    }
  }
  return -1;
}

}  // namespace ipsa::ipbm
