#include "daemon/backends.h"

#include <algorithm>

#include "controller/designs.h"

namespace ipsa::daemon {

namespace {

// Device counters + per-table stats.
rpc::StatsResponse StatsFrom(const telemetry::DeviceStats& st,
                             const arch::TableCatalog& catalog) {
  rpc::StatsResponse resp;
  resp.packets_in = st.packets_in;
  resp.packets_out = st.packets_out;
  resp.packets_dropped = st.packets_dropped;
  resp.packets_marked = st.packets_marked;
  resp.config_words_written = st.config_words_written;
  resp.full_loads = st.full_loads;
  resp.template_writes = st.template_writes;
  resp.table_ops = st.table_ops;
  for (const std::string& name : catalog.TableNames()) {
    auto t = catalog.Get(name);
    if (!t.ok()) continue;
    rpc::TableStatsRow row;
    row.table = name;
    row.match_kind = static_cast<uint8_t>((*t)->spec().match_kind);
    row.entries = (*t)->entry_count();
    row.size = (*t)->spec().size;
    row.hits = (*t)->hits();
    row.misses = (*t)->misses();
    resp.tables.push_back(std::move(row));
  }
  return resp;
}

// Per-table telemetry rows come from the catalog's own hit/miss counters,
// keeping the telemetry layer table-agnostic.
void FillTableRows(const arch::TableCatalog& catalog,
                   telemetry::MetricsSnapshot& snap) {
  for (const std::string& name : catalog.TableNames()) {
    auto t = catalog.Get(name);
    if (!t.ok()) continue;
    telemetry::TableRow row;
    row.table = name;
    row.match_kind = static_cast<uint8_t>((*t)->spec().match_kind);
    row.entries = (*t)->entry_count();
    row.size = (*t)->spec().size;
    row.hits = (*t)->hits();
    row.misses = (*t)->misses();
    snap.tables.push_back(std::move(row));
  }
}

// Applies one bulk frame with per-table batched publication: every table
// the frame touches runs the frame's ops inside one MatchTable batch, so it
// publishes (and pays its RCU grace period) once per frame instead of once
// per op. The lpm, selector and ternary tables make the frame visible to
// lookups in one swap at EndBatch; exact-table ops are visible as each
// lands. Failures are collected per-op — the frame (and stream) never
// aborts, and publication still happens for the ops that succeeded.
template <typename Device, typename Fn>
rpc::TableBulkResponse ApplyBulkFrame(Device& device,
                                      const rpc::TableBulkRequest& req,
                                      Fn&& apply_one) {
  // Distinct tables in first-seen order. Frames touch one or two tables in
  // practice, so a linear scan beats a hash set here. An unknown table name
  // opens no batch; its ops fail individually.
  std::vector<table::MatchTable*> batched;
  for (const rpc::TableOp& op : req.ops) {
    auto t = device.catalog().Get(op.table);
    if (t.ok() &&
        std::find(batched.begin(), batched.end(), *t) == batched.end()) {
      (*t)->BeginBatch();
      batched.push_back(*t);
    }
  }
  rpc::TableBulkResponse resp;
  for (uint32_t i = 0; i < req.ops.size(); ++i) {
    Status s = apply_one(req.ops[i]);
    if (s.ok()) {
      ++resp.applied;
    } else {
      resp.failures.push_back(
          rpc::BulkFailure{i, static_cast<uint16_t>(s.code()), s.message()});
    }
  }
  for (table::MatchTable* t : batched) t->EndBatch();
  return resp;
}

}  // namespace

std::string_view ArchName(ArchKind arch) {
  return arch == ArchKind::kPisa ? "pisa" : "ipsa";
}

Result<ArchKind> ArchFromName(std::string_view name) {
  if (name == "pisa" || name == "pbm") return ArchKind::kPisa;
  if (name == "ipsa" || name == "ipbm") return ArchKind::kIpsa;
  return InvalidArgument("unknown arch '" + std::string(name) +
                         "' (expected pisa|ipsa)");
}

std::vector<TxPacket> CollectTx(net::PortSet& ports) {
  std::vector<TxPacket> out;
  CollectTxInto(ports, out);
  return out;
}

void CollectTxInto(net::PortSet& ports, std::vector<TxPacket>& out) {
  for (uint32_t p = 0; p < ports.count(); ++p) {
    while (auto pkt = ports.port(p).tx().Pop()) {
      out.push_back(TxPacket{p, std::move(*pkt)});
    }
  }
}

Result<std::vector<TxPacket>> InjectAndDrain(DeviceBackend& dev,
                                             net::Packet packet,
                                             uint32_t in_port,
                                             uint32_t workers) {
  if (in_port >= dev.ports().count()) {
    return InvalidArgument("no such port " + std::to_string(in_port));
  }
  if (!dev.ports().port(in_port).rx().Push(std::move(packet))) {
    return ResourceExhausted("port " + std::to_string(in_port) +
                             " RX queue is full");
  }
  IPSA_RETURN_IF_ERROR(dev.RunToCompletion(workers).status());
  return CollectTx(dev.ports());
}

// --- SwitchBackend -----------------------------------------------------------

template <>
const ArchKind IpsaBackend::kArch = ArchKind::kIpsa;
template <>
const ArchKind PisaBackend::kArch = ArchKind::kPisa;

template <>
Result<controller::FlowTiming> IpsaBackend::Load(rpc::InstallKind kind,
                                                 const std::string& source) {
  switch (kind) {
    case rpc::InstallKind::kBaseP4:
      return controller_.LoadBaseFromP4(source);
    case rpc::InstallKind::kBaseRp4:
      return controller_.LoadBaseFromRp4(source);
    case rpc::InstallKind::kScript:
      if (!has_design_) {
        return FailedPrecondition("no base design to update");
      }
      // Snippet file names inside the script resolve against the built-in
      // designs (ecmp.rp4 / srv6.rp4 / probe.rp4 / ...).
      return controller_.ApplyScript(source,
                                     controller::designs::ResolveSnippet);
  }
  return InvalidArgument("bad install kind");
}

template <>
Result<controller::FlowTiming> PisaBackend::Load(rpc::InstallKind kind,
                                                 const std::string& source) {
  if (kind != rpc::InstallKind::kBaseP4) {
    // The whole point of the baseline: no incremental surface. A "runtime
    // update" on PISA is a full recompile+reload of the complete program.
    return Unimplemented(
        "pisa accepts only full P4 programs (kBaseP4); recompile the whole "
        "design to change it");
  }
  return controller_.CompileAndLoad(source);
}

template <typename Device, typename Controller>
rpc::BackendInfo SwitchBackend<Device, Controller>::Info() {
  rpc::BackendInfo info;
  info.arch = std::string(ArchName(kArch));
  info.port_count = device_.ports().count();
  info.has_design = has_design_;
  info.epoch = epoch_;
  return info;
}

template <typename Device, typename Controller>
Result<rpc::InstallOutcome> SwitchBackend<Device, Controller>::Install(
    rpc::InstallKind kind, const std::string& source) {
  IPSA_ASSIGN_OR_RETURN(controller::FlowTiming timing, Load(kind, source));
  has_design_ = true;
  ++epoch_;
  rpc::InstallOutcome out;
  out.compile_ms = timing.compile_ms;
  out.load_ms = timing.load_ms;
  out.epoch = epoch_;
  return out;
}

template <typename Device, typename Controller>
Status SwitchBackend<Device, Controller>::ApplyTableOp(
    const rpc::TableOp& op) {
  if (!has_design_) return FailedPrecondition("no design installed");
  return ApplyOne(op, /*strict_add=*/false);
}

template <typename Device, typename Controller>
Status SwitchBackend<Device, Controller>::ApplyOne(const rpc::TableOp& op,
                                                   bool strict_add) {
  switch (op.op) {
    case rpc::TableOpKind::kAdd:
      // Goes through the flow controller, so pbm's shadow store keeps a
      // copy for repopulation after the next full reload.
      return controller_.AddEntry(op.table, op.entry, /*upsert=*/!strict_add);
    case rpc::TableOpKind::kModify: {
      Status erased = device_.EraseEntry(op.table, op.entry);
      if (!erased.ok() && erased.code() != StatusCode::kNotFound) {
        return erased;
      }
      return controller_.AddEntry(op.table, op.entry);
    }
    case rpc::TableOpKind::kDelete:
      // Device-only: pbm's shadow keeps the entry and restores it on the
      // next reload, mirroring how a real driver's delete bypasses the
      // controller's repopulation snapshot unless the controller is told.
      return device_.EraseEntry(op.table, op.entry);
  }
  return InvalidArgument("bad table op");
}

template <typename Device, typename Controller>
Result<rpc::TableBulkResponse> SwitchBackend<Device, Controller>::ApplyTableBulk(
    const rpc::TableBulkRequest& req) {
  if (!has_design_) return FailedPrecondition("no design installed");
  return ApplyBulkFrame(device_, req, [this](const rpc::TableOp& op) {
    return ApplyOne(op, /*strict_add=*/true);
  });
}

template <typename Device, typename Controller>
Result<compiler::ApiSpec> SwitchBackend<Device, Controller>::Api() {
  if (!has_design_) return FailedPrecondition("no design installed");
  return controller_.api();
}

template <typename Device, typename Controller>
Result<rpc::StatsResponse> SwitchBackend<Device, Controller>::QueryStats() {
  return StatsFrom(device_.stats(), device_.catalog());
}

template <typename Device, typename Controller>
Result<uint32_t> SwitchBackend<Device, Controller>::Drain(uint32_t workers) {
  return device_.RunToCompletion(workers);
}

template <typename Device, typename Controller>
Result<rpc::MetricsResponse> SwitchBackend<Device, Controller>::QueryMetrics() {
  rpc::MetricsResponse resp;
  resp.arch = std::string(ArchName(kArch));
  resp.snapshot =
      device_.telemetry().Snapshot(device_.config_epoch(), device_.stats());
  FillTableRows(device_.catalog(), resp.snapshot);
  return resp;
}

template <typename Device, typename Controller>
Result<rpc::TracesResponse> SwitchBackend<Device, Controller>::DrainTraces(
    uint32_t max) {
  if (max == 0 || max > rpc::kMaxTraceRecords) max = rpc::kMaxTraceRecords;
  rpc::TracesResponse resp;
  resp.traces = device_.telemetry().DrainTraces(max);
  return resp;
}

template <typename Device, typename Controller>
Status SwitchBackend<Device, Controller>::ResetMetrics() {
  device_.telemetry().Reset();
  return OkStatus();
}

template class SwitchBackend<ipbm::IpbmSwitch, controller::Rp4FlowController>;
template class SwitchBackend<pisa::PisaSwitch, controller::PisaFlowController>;

std::unique_ptr<DeviceBackend> MakeBackend(ArchKind arch,
                                           const PoolTuning& tuning) {
  // The compiler's allocation solver models the same pool geometry the
  // device constructs; both must see the tuning or the solver would reject
  // tables the deepened pool could actually hold.
  if (arch == ArchKind::kPisa) {
    pisa::PisaOptions opt;
    compiler::PisaBackendOptions copt;
    if (tuning.sram_blocks) {
      opt.sram_blocks_per_stage = tuning.sram_blocks;
      copt.sram_blocks_per_stage = tuning.sram_blocks;
    }
    if (tuning.sram_depth) {
      opt.sram_depth = tuning.sram_depth;
      copt.sram_depth = tuning.sram_depth;
    }
    if (tuning.tcam_blocks) {
      opt.tcam_blocks_per_stage = tuning.tcam_blocks;
      copt.tcam_blocks_per_stage = tuning.tcam_blocks;
    }
    if (tuning.tcam_depth) {
      opt.tcam_depth = tuning.tcam_depth;
      copt.tcam_depth = tuning.tcam_depth;
    }
    return std::make_unique<PisaBackend>(opt, copt);
  }
  ipbm::IpbmOptions opt;
  compiler::Rp4bcOptions copt;
  if (tuning.sram_blocks) {
    opt.sram_blocks = tuning.sram_blocks;
    copt.sram_blocks = tuning.sram_blocks;
  }
  if (tuning.sram_depth) {
    opt.sram_depth = tuning.sram_depth;
    copt.sram_depth = tuning.sram_depth;
  }
  if (tuning.tcam_blocks) {
    opt.tcam_blocks = tuning.tcam_blocks;
    copt.tcam_blocks = tuning.tcam_blocks;
  }
  if (tuning.tcam_depth) {
    opt.tcam_depth = tuning.tcam_depth;
    copt.tcam_depth = tuning.tcam_depth;
  }
  return std::make_unique<IpsaBackend>(opt, copt);
}

}  // namespace ipsa::daemon
