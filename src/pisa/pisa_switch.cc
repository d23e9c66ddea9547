#include "pisa/pisa_switch.h"

#include <chrono>

#include "arch/ii_model.h"
#include "arch/parse_engine.h"
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
          if (exec_mode_ == arch::ExecMode::kSpecialize) {
            auto compiled = arch::CompileStage(*side[i], catalog_, actions_,
                                               design_.headers,
                                               metadata_proto_);
            if (compiled.ok()) {
              out[i] = std::move(compiled).value();
            } else {
              ++stats_.interpreted_stages;  // interpreter fallback
            }
          }
          design_uses_registers_ |=
              out[i].has_value()
                  ? out[i]->uses_registers
                  : arch::StageMayUseRegisters(*side[i], actions_);
        }
      };
  compile_side(ingress_, compiled_ingress_);
  compile_side(egress_, compiled_egress_);

  // Lower the physical stage array into the straight-line plan. All
  // physical stages are traversed in order whether or not they hold a
  // program — non-functional stages still cost a cycle of latency (the
  // elastic-pipeline motivation in §2.3) — so active stages become groups
  // carrying any preceding empty stages' traversal cycles, and trailing
  // empties become the side's tail charge.
  plan_ = arch::PipelinePlan{};
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
              compiled[i].has_value() ? &*compiled[i] : nullptr, &*side[i],
              group.unit});
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

  ingress_port_slot_ = metadata_proto_.SlotOf("ingress_port");
  driver_.SetMetadataLayout(metadata_proto_);
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

Result<telemetry::ProcessResult> PisaSwitch::ProcessCore(
    net::Packet& packet, uint32_t in_port, arch::PacketContext& ctx,
    telemetry::DeviceStats& stats, telemetry::MetricsShard* tshard,
    telemetry::ProcessTrace* trace) {
  if (!loaded_) return FailedPrecondition("pbm: no design loaded");
  ++stats.packets_in;

  ctx.Rebind(packet, design_.headers);
  ctx.metadata().Reset();
  ctx.metadata().SlotWriteUint(ingress_port_slot_, in_port);

  // Standalone front-end parser: extract everything up front (§2.1 contrast).
  IPSA_ASSIGN_OR_RETURN(arch::ParseStats ps, arch::ParseEngine::ParseAll(ctx));

  telemetry::ProcessResult result;
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

  IPSA_RETURN_IF_ERROR(telemetry::RunObservedPlan(plan_, ctx, catalog_,
                                                  actions_, &regs_, tshard,
                                                  trace)
                           .status());
  telemetry::CountResult(ctx, in_port, result, stats, tshard);
  return result;
}

std::string PisaSwitch::PlanToString() {
  EnsureCompiled();
  return plan_.ToString();
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
