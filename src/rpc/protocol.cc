#include "rpc/protocol.h"

namespace ipsa::rpc {

namespace {

// Bounds on repeated elements inside one message; all far below the frame
// payload cap, so a hostile length never triggers a large allocation.
constexpr uint32_t kMaxKeyFields = 256;
constexpr uint32_t kMaxActions = 1024;
constexpr uint32_t kMaxTables = 4096;

Result<table::Entry> DecodeEntry(wire::Reader& r) {
  table::Entry e;
  IPSA_ASSIGN_OR_RETURN(e.key, r.Bits());
  IPSA_ASSIGN_OR_RETURN(e.mask, r.Bits());
  IPSA_ASSIGN_OR_RETURN(e.prefix_len, r.U32());
  IPSA_ASSIGN_OR_RETURN(e.priority, r.U32());
  IPSA_ASSIGN_OR_RETURN(e.action_id, r.U32());
  IPSA_ASSIGN_OR_RETURN(e.action_data, r.Bits());
  return e;
}

void EncodeEntry(wire::Writer& w, const table::Entry& e) {
  w.Bits(e.key);
  w.Bits(e.mask);
  w.U32(e.prefix_len);
  w.U32(e.priority);
  w.U32(e.action_id);
  w.Bits(e.action_data);
}

}  // namespace

std::string_view MsgTypeName(uint16_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kHelloReq:
      return "HelloReq";
    case MsgType::kHelloResp:
      return "HelloResp";
    case MsgType::kInstallReq:
      return "InstallReq";
    case MsgType::kInstallResp:
      return "InstallResp";
    case MsgType::kTableOpReq:
      return "TableOpReq";
    case MsgType::kTableOpResp:
      return "TableOpResp";
    case MsgType::kTableBatchReq:
      return "TableBatchReq";
    case MsgType::kTableBatchResp:
      return "TableBatchResp";
    case MsgType::kApiReq:
      return "ApiReq";
    case MsgType::kApiResp:
      return "ApiResp";
    case MsgType::kStatsReq:
      return "StatsReq";
    case MsgType::kStatsResp:
      return "StatsResp";
    case MsgType::kEpochReq:
      return "EpochReq";
    case MsgType::kEpochResp:
      return "EpochResp";
    case MsgType::kDrainReq:
      return "DrainReq";
    case MsgType::kDrainResp:
      return "DrainResp";
    case MsgType::kMetricsReq:
      return "MetricsReq";
    case MsgType::kMetricsResp:
      return "MetricsResp";
    case MsgType::kTracesReq:
      return "TracesReq";
    case MsgType::kTracesResp:
      return "TracesResp";
    case MsgType::kResetMetricsReq:
      return "ResetMetricsReq";
    case MsgType::kResetMetricsResp:
      return "ResetMetricsResp";
    case MsgType::kTableBulkReq:
      return "TableBulkReq";
    case MsgType::kTableBulkResp:
      return "TableBulkResp";
  }
  return "?";
}

void PutStatus(wire::Writer& w, const Status& status) {
  w.U16(static_cast<uint16_t>(status.code()));
  w.Str(status.message());
}

Status GetStatus(wire::Reader& r, Status& out) {
  IPSA_ASSIGN_OR_RETURN(uint16_t code, r.U16());
  IPSA_ASSIGN_OR_RETURN(std::string message, r.Str());
  if (code > static_cast<uint16_t>(StatusCode::kDeadlineExceeded)) {
    return InvalidArgument("wire: unknown status code " + std::to_string(code));
  }
  out = code == 0 ? OkStatus()
                  : Status(static_cast<StatusCode>(code), std::move(message));
  return OkStatus();
}

void HelloRequest::Encode(wire::Writer& w) const {
  w.U32(version);
  w.Str(client);
}

Result<HelloRequest> HelloRequest::Decode(wire::Reader& r) {
  HelloRequest req;
  IPSA_ASSIGN_OR_RETURN(req.version, r.U32());
  IPSA_ASSIGN_OR_RETURN(req.client, r.Str());
  return req;
}

void HelloResponse::Encode(wire::Writer& w) const {
  w.U32(version);
  w.Str(arch);
  w.U32(port_count);
  w.U64(epoch);
  w.Bool(has_design);
}

Result<HelloResponse> HelloResponse::Decode(wire::Reader& r) {
  HelloResponse resp;
  IPSA_ASSIGN_OR_RETURN(resp.version, r.U32());
  IPSA_ASSIGN_OR_RETURN(resp.arch, r.Str());
  IPSA_ASSIGN_OR_RETURN(resp.port_count, r.U32());
  IPSA_ASSIGN_OR_RETURN(resp.epoch, r.U64());
  IPSA_ASSIGN_OR_RETURN(resp.has_design, r.Bool());
  return resp;
}

void InstallRequest::Encode(wire::Writer& w) const {
  w.U8(static_cast<uint8_t>(kind));
  w.Str(source);
}

Result<InstallRequest> InstallRequest::Decode(wire::Reader& r) {
  InstallRequest req;
  IPSA_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
  if (kind > static_cast<uint8_t>(InstallKind::kScript)) {
    return InvalidArgument("unknown install kind " + std::to_string(kind));
  }
  req.kind = static_cast<InstallKind>(kind);
  IPSA_ASSIGN_OR_RETURN(req.source, r.Str());
  return req;
}

void InstallResponse::Encode(wire::Writer& w) const {
  w.F64(compile_ms);
  w.F64(load_ms);
  w.U64(epoch);
}

Result<InstallResponse> InstallResponse::Decode(wire::Reader& r) {
  InstallResponse resp;
  IPSA_ASSIGN_OR_RETURN(resp.compile_ms, r.F64());
  IPSA_ASSIGN_OR_RETURN(resp.load_ms, r.F64());
  IPSA_ASSIGN_OR_RETURN(resp.epoch, r.U64());
  return resp;
}

void TableOp::Encode(wire::Writer& w) const {
  w.U8(static_cast<uint8_t>(op));
  w.Str(table);
  EncodeEntry(w, entry);
}

Result<TableOp> TableOp::Decode(wire::Reader& r) {
  TableOp op;
  IPSA_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
  if (kind > static_cast<uint8_t>(TableOpKind::kDelete)) {
    return InvalidArgument("unknown table op kind " + std::to_string(kind));
  }
  op.op = static_cast<TableOpKind>(kind);
  IPSA_ASSIGN_OR_RETURN(op.table, r.Str());
  IPSA_ASSIGN_OR_RETURN(op.entry, DecodeEntry(r));
  return op;
}

void TableBatchRequest::Encode(wire::Writer& w) const {
  w.U32(static_cast<uint32_t>(ops.size()));
  for (const TableOp& op : ops) op.Encode(w);
}

Result<TableBatchRequest> TableBatchRequest::Decode(wire::Reader& r) {
  IPSA_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  if (count > kMaxBatchOps) {
    return InvalidArgument("batch of " + std::to_string(count) +
                           " ops exceeds the " + std::to_string(kMaxBatchOps) +
                           " op bound");
  }
  TableBatchRequest req;
  req.ops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    IPSA_ASSIGN_OR_RETURN(TableOp op, TableOp::Decode(r));
    req.ops.push_back(std::move(op));
  }
  return req;
}

void TableBatchResponse::Encode(wire::Writer& w) const { w.U32(applied); }

Result<TableBatchResponse> TableBatchResponse::Decode(wire::Reader& r) {
  TableBatchResponse resp;
  IPSA_ASSIGN_OR_RETURN(resp.applied, r.U32());
  return resp;
}

void TableBulkRequest::Encode(std::span<const TableOp> ops, wire::Writer& w) {
  w.U32(static_cast<uint32_t>(ops.size()));
  for (const TableOp& op : ops) op.Encode(w);
}

Result<TableBulkRequest> TableBulkRequest::Decode(wire::Reader& r) {
  IPSA_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  if (count > kMaxBatchOps) {
    return InvalidArgument("bulk frame of " + std::to_string(count) +
                           " ops exceeds the " + std::to_string(kMaxBatchOps) +
                           " op bound");
  }
  TableBulkRequest req;
  req.ops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    IPSA_ASSIGN_OR_RETURN(TableOp op, TableOp::Decode(r));
    req.ops.push_back(std::move(op));
  }
  return req;
}

void TableBulkResponse::Encode(wire::Writer& w) const {
  w.U32(applied);
  w.U32(static_cast<uint32_t>(failures.size()));
  for (const BulkFailure& f : failures) {
    w.U32(f.index);
    w.U16(f.code);
    w.Str(f.message);
  }
}

Result<TableBulkResponse> TableBulkResponse::Decode(wire::Reader& r) {
  TableBulkResponse resp;
  IPSA_ASSIGN_OR_RETURN(resp.applied, r.U32());
  IPSA_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  if (count > kMaxBatchOps) {
    return InvalidArgument("bulk response reports " + std::to_string(count) +
                           " failures, exceeding the op bound");
  }
  resp.failures.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    BulkFailure f;
    IPSA_ASSIGN_OR_RETURN(f.index, r.U32());
    IPSA_ASSIGN_OR_RETURN(f.code, r.U16());
    IPSA_ASSIGN_OR_RETURN(f.message, r.Str());
    resp.failures.push_back(std::move(f));
  }
  return resp;
}

void PutApiSpec(wire::Writer& w, const compiler::ApiSpec& api) {
  w.U32(static_cast<uint32_t>(api.tables.size()));
  for (const auto& [name, t] : api.tables) {
    w.Str(name);
    w.U8(static_cast<uint8_t>(t.match_kind));
    w.U32(static_cast<uint32_t>(t.key_field_widths.size()));
    for (uint32_t width : t.key_field_widths) w.U32(width);
    w.U32(static_cast<uint32_t>(t.actions.size()));
    for (const auto& [action, id_params] : t.actions) {
      w.Str(action);
      w.U32(id_params.first);
      w.U32(static_cast<uint32_t>(id_params.second.size()));
      for (uint32_t pw : id_params.second) w.U32(pw);
    }
  }
}

Result<compiler::ApiSpec> GetApiSpec(wire::Reader& r) {
  IPSA_ASSIGN_OR_RETURN(uint32_t table_count, r.U32());
  if (table_count > kMaxTables) {
    return InvalidArgument("api spec table count out of bounds");
  }
  compiler::ApiSpec api;
  for (uint32_t i = 0; i < table_count; ++i) {
    compiler::TableApi t;
    IPSA_ASSIGN_OR_RETURN(t.table, r.Str());
    IPSA_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
    if (kind > static_cast<uint8_t>(table::MatchKind::kSelector)) {
      return InvalidArgument("api spec match kind out of range");
    }
    t.match_kind = static_cast<table::MatchKind>(kind);
    IPSA_ASSIGN_OR_RETURN(uint32_t key_count, r.U32());
    if (key_count > kMaxKeyFields) {
      return InvalidArgument("api spec key field count out of bounds");
    }
    t.key_field_widths.reserve(key_count);
    for (uint32_t k = 0; k < key_count; ++k) {
      IPSA_ASSIGN_OR_RETURN(uint32_t width, r.U32());
      t.key_field_widths.push_back(width);
    }
    IPSA_ASSIGN_OR_RETURN(uint32_t action_count, r.U32());
    if (action_count > kMaxActions) {
      return InvalidArgument("api spec action count out of bounds");
    }
    for (uint32_t a = 0; a < action_count; ++a) {
      IPSA_ASSIGN_OR_RETURN(std::string action, r.Str());
      IPSA_ASSIGN_OR_RETURN(uint32_t id, r.U32());
      IPSA_ASSIGN_OR_RETURN(uint32_t param_count, r.U32());
      if (param_count > kMaxKeyFields) {
        return InvalidArgument("api spec param count out of bounds");
      }
      std::vector<uint32_t> params;
      params.reserve(param_count);
      for (uint32_t p = 0; p < param_count; ++p) {
        IPSA_ASSIGN_OR_RETURN(uint32_t pw, r.U32());
        params.push_back(pw);
      }
      t.actions[action] = {id, std::move(params)};
    }
    std::string name = t.table;
    api.tables.emplace(std::move(name), std::move(t));
  }
  return api;
}

void StatsResponse::Encode(wire::Writer& w) const {
  w.U64(packets_in);
  w.U64(packets_out);
  w.U64(packets_dropped);
  w.U64(packets_marked);
  w.U64(config_words_written);
  w.U64(full_loads);
  w.U64(template_writes);
  w.U64(table_ops);
  w.U32(static_cast<uint32_t>(tables.size()));
  for (const TableStatsRow& row : tables) {
    w.Str(row.table);
    w.U8(row.match_kind);
    w.U32(row.entries);
    w.U32(row.size);
    w.U64(row.hits);
    w.U64(row.misses);
  }
}

Result<StatsResponse> StatsResponse::Decode(wire::Reader& r) {
  StatsResponse resp;
  IPSA_ASSIGN_OR_RETURN(resp.packets_in, r.U64());
  IPSA_ASSIGN_OR_RETURN(resp.packets_out, r.U64());
  IPSA_ASSIGN_OR_RETURN(resp.packets_dropped, r.U64());
  IPSA_ASSIGN_OR_RETURN(resp.packets_marked, r.U64());
  IPSA_ASSIGN_OR_RETURN(resp.config_words_written, r.U64());
  IPSA_ASSIGN_OR_RETURN(resp.full_loads, r.U64());
  IPSA_ASSIGN_OR_RETURN(resp.template_writes, r.U64());
  IPSA_ASSIGN_OR_RETURN(resp.table_ops, r.U64());
  IPSA_ASSIGN_OR_RETURN(uint32_t table_count, r.U32());
  if (table_count > kMaxTables) {
    return InvalidArgument("stats table count out of bounds");
  }
  resp.tables.reserve(table_count);
  for (uint32_t i = 0; i < table_count; ++i) {
    TableStatsRow row;
    IPSA_ASSIGN_OR_RETURN(row.table, r.Str());
    IPSA_ASSIGN_OR_RETURN(row.match_kind, r.U8());
    IPSA_ASSIGN_OR_RETURN(row.entries, r.U32());
    IPSA_ASSIGN_OR_RETURN(row.size, r.U32());
    IPSA_ASSIGN_OR_RETURN(row.hits, r.U64());
    IPSA_ASSIGN_OR_RETURN(row.misses, r.U64());
    resp.tables.push_back(std::move(row));
  }
  return resp;
}

void EpochResponse::Encode(wire::Writer& w) const {
  w.U64(epoch);
  w.Bool(has_design);
  w.Str(arch);
}

Result<EpochResponse> EpochResponse::Decode(wire::Reader& r) {
  EpochResponse resp;
  IPSA_ASSIGN_OR_RETURN(resp.epoch, r.U64());
  IPSA_ASSIGN_OR_RETURN(resp.has_design, r.Bool());
  IPSA_ASSIGN_OR_RETURN(resp.arch, r.Str());
  return resp;
}

void DrainRequest::Encode(wire::Writer& w) const { w.U32(workers); }

Result<DrainRequest> DrainRequest::Decode(wire::Reader& r) {
  DrainRequest req;
  IPSA_ASSIGN_OR_RETURN(req.workers, r.U32());
  if (req.workers == 0 || req.workers > 64) {
    return InvalidArgument("drain worker count out of range");
  }
  return req;
}

void DrainResponse::Encode(wire::Writer& w) const { w.U32(processed); }

Result<DrainResponse> DrainResponse::Decode(wire::Reader& r) {
  DrainResponse resp;
  IPSA_ASSIGN_OR_RETURN(resp.processed, r.U32());
  return resp;
}

// --- telemetry ---------------------------------------------------------------

namespace {

constexpr uint32_t kMaxPortRows = 65536;
constexpr uint32_t kMaxStageRows = 65536;
constexpr uint32_t kMaxTraceSteps = 4096;
constexpr uint32_t kMaxTraceHeaders = 1024;

void PutHistogram(wire::Writer& w, const telemetry::Histogram& h) {
  w.U32(telemetry::kHistogramBuckets);
  for (uint64_t b : h.buckets) w.U64(b);
  w.U64(h.count);
  w.U64(h.sum);
  w.U64(h.min);
  w.U64(h.max);
}

Result<telemetry::Histogram> GetHistogram(wire::Reader& r) {
  IPSA_ASSIGN_OR_RETURN(uint32_t buckets, r.U32());
  if (buckets != telemetry::kHistogramBuckets) {
    return InvalidArgument("histogram bucket count mismatch");
  }
  telemetry::Histogram h;
  for (uint64_t& b : h.buckets) {
    IPSA_ASSIGN_OR_RETURN(b, r.U64());
  }
  IPSA_ASSIGN_OR_RETURN(h.count, r.U64());
  IPSA_ASSIGN_OR_RETURN(h.sum, r.U64());
  IPSA_ASSIGN_OR_RETURN(h.min, r.U64());
  IPSA_ASSIGN_OR_RETURN(h.max, r.U64());
  return h;
}

void PutDeviceStats(wire::Writer& w, const telemetry::DeviceStats& d) {
  w.U64(d.config_words_written);
  w.U64(d.full_loads);
  w.U64(d.template_writes);
  w.U64(d.table_ops);
  w.U64(d.packets_in);
  w.U64(d.packets_out);
  w.U64(d.packets_dropped);
  w.U64(d.packets_marked);
  w.U64(d.total_cycles);
  w.U64(d.interpreted_stages);
}

Result<telemetry::DeviceStats> GetDeviceStats(wire::Reader& r) {
  telemetry::DeviceStats d;
  IPSA_ASSIGN_OR_RETURN(d.config_words_written, r.U64());
  IPSA_ASSIGN_OR_RETURN(d.full_loads, r.U64());
  IPSA_ASSIGN_OR_RETURN(d.template_writes, r.U64());
  IPSA_ASSIGN_OR_RETURN(d.table_ops, r.U64());
  IPSA_ASSIGN_OR_RETURN(d.packets_in, r.U64());
  IPSA_ASSIGN_OR_RETURN(d.packets_out, r.U64());
  IPSA_ASSIGN_OR_RETURN(d.packets_dropped, r.U64());
  IPSA_ASSIGN_OR_RETURN(d.packets_marked, r.U64());
  IPSA_ASSIGN_OR_RETURN(d.total_cycles, r.U64());
  IPSA_ASSIGN_OR_RETURN(d.interpreted_stages, r.U64());
  return d;
}

void PutProcessResult(wire::Writer& w, const telemetry::ProcessResult& p) {
  w.Bool(p.dropped);
  w.Bool(p.marked);
  w.U32(p.egress_port);
  w.U64(p.cycles);
  w.U32(p.headers_parsed);
  w.F64(p.pipeline_ii);
}

Result<telemetry::ProcessResult> GetProcessResult(wire::Reader& r) {
  telemetry::ProcessResult p;
  IPSA_ASSIGN_OR_RETURN(p.dropped, r.Bool());
  IPSA_ASSIGN_OR_RETURN(p.marked, r.Bool());
  IPSA_ASSIGN_OR_RETURN(p.egress_port, r.U32());
  IPSA_ASSIGN_OR_RETURN(p.cycles, r.U64());
  IPSA_ASSIGN_OR_RETURN(p.headers_parsed, r.U32());
  IPSA_ASSIGN_OR_RETURN(p.pipeline_ii, r.F64());
  return p;
}

}  // namespace

void MetricsResponse::Encode(wire::Writer& w) const {
  w.Str(arch);
  w.Bool(snapshot.enabled);
  w.U64(snapshot.seq);
  w.U64(snapshot.config_epoch);
  PutDeviceStats(w, snapshot.device);
  w.U32(static_cast<uint32_t>(snapshot.ports.size()));
  for (const telemetry::PortRow& row : snapshot.ports) {
    w.U32(row.port);
    w.U64(row.metrics.packets_in);
    w.U64(row.metrics.packets_out);
    w.U64(row.metrics.packets_dropped);
    w.U64(row.metrics.packets_marked);
    PutHistogram(w, row.metrics.cycles);
  }
  w.U32(static_cast<uint32_t>(snapshot.stages.size()));
  for (const telemetry::StageRow& row : snapshot.stages) {
    w.U32(row.unit);
    w.Str(row.stage);
    w.U64(row.metrics.executions);
    w.U64(row.metrics.hits);
    w.U64(row.metrics.misses);
  }
  w.U32(static_cast<uint32_t>(snapshot.tables.size()));
  for (const telemetry::TableRow& row : snapshot.tables) {
    w.Str(row.table);
    w.U8(row.match_kind);
    w.U32(row.entries);
    w.U32(row.size);
    w.U64(row.hits);
    w.U64(row.misses);
  }
  w.U64(snapshot.updates);
  w.U64(snapshot.last_update_epoch);
  w.F64(snapshot.last_update_ms);
  PutHistogram(w, snapshot.update_window_us);
  PutHistogram(w, snapshot.drain_window_cycles);
  w.U64(snapshot.traces_captured);
  w.U64(snapshot.traces_dropped);
  w.U32(snapshot.traces_pending);
}

Result<MetricsResponse> MetricsResponse::Decode(wire::Reader& r) {
  MetricsResponse resp;
  IPSA_ASSIGN_OR_RETURN(resp.arch, r.Str());
  telemetry::MetricsSnapshot& s = resp.snapshot;
  IPSA_ASSIGN_OR_RETURN(s.enabled, r.Bool());
  IPSA_ASSIGN_OR_RETURN(s.seq, r.U64());
  IPSA_ASSIGN_OR_RETURN(s.config_epoch, r.U64());
  IPSA_ASSIGN_OR_RETURN(s.device, GetDeviceStats(r));
  IPSA_ASSIGN_OR_RETURN(uint32_t port_count, r.U32());
  if (port_count > kMaxPortRows) {
    return InvalidArgument("metrics port row count out of bounds");
  }
  s.ports.reserve(port_count);
  for (uint32_t i = 0; i < port_count; ++i) {
    telemetry::PortRow row;
    IPSA_ASSIGN_OR_RETURN(row.port, r.U32());
    IPSA_ASSIGN_OR_RETURN(row.metrics.packets_in, r.U64());
    IPSA_ASSIGN_OR_RETURN(row.metrics.packets_out, r.U64());
    IPSA_ASSIGN_OR_RETURN(row.metrics.packets_dropped, r.U64());
    IPSA_ASSIGN_OR_RETURN(row.metrics.packets_marked, r.U64());
    IPSA_ASSIGN_OR_RETURN(row.metrics.cycles, GetHistogram(r));
    s.ports.push_back(std::move(row));
  }
  IPSA_ASSIGN_OR_RETURN(uint32_t stage_count, r.U32());
  if (stage_count > kMaxStageRows) {
    return InvalidArgument("metrics stage row count out of bounds");
  }
  s.stages.reserve(stage_count);
  for (uint32_t i = 0; i < stage_count; ++i) {
    telemetry::StageRow row;
    IPSA_ASSIGN_OR_RETURN(row.unit, r.U32());
    IPSA_ASSIGN_OR_RETURN(row.stage, r.Str());
    IPSA_ASSIGN_OR_RETURN(row.metrics.executions, r.U64());
    IPSA_ASSIGN_OR_RETURN(row.metrics.hits, r.U64());
    IPSA_ASSIGN_OR_RETURN(row.metrics.misses, r.U64());
    s.stages.push_back(std::move(row));
  }
  IPSA_ASSIGN_OR_RETURN(uint32_t table_count, r.U32());
  if (table_count > kMaxTables) {
    return InvalidArgument("metrics table row count out of bounds");
  }
  s.tables.reserve(table_count);
  for (uint32_t i = 0; i < table_count; ++i) {
    telemetry::TableRow row;
    IPSA_ASSIGN_OR_RETURN(row.table, r.Str());
    IPSA_ASSIGN_OR_RETURN(row.match_kind, r.U8());
    IPSA_ASSIGN_OR_RETURN(row.entries, r.U32());
    IPSA_ASSIGN_OR_RETURN(row.size, r.U32());
    IPSA_ASSIGN_OR_RETURN(row.hits, r.U64());
    IPSA_ASSIGN_OR_RETURN(row.misses, r.U64());
    s.tables.push_back(std::move(row));
  }
  IPSA_ASSIGN_OR_RETURN(s.updates, r.U64());
  IPSA_ASSIGN_OR_RETURN(s.last_update_epoch, r.U64());
  IPSA_ASSIGN_OR_RETURN(s.last_update_ms, r.F64());
  IPSA_ASSIGN_OR_RETURN(s.update_window_us, GetHistogram(r));
  IPSA_ASSIGN_OR_RETURN(s.drain_window_cycles, GetHistogram(r));
  IPSA_ASSIGN_OR_RETURN(s.traces_captured, r.U64());
  IPSA_ASSIGN_OR_RETURN(s.traces_dropped, r.U64());
  IPSA_ASSIGN_OR_RETURN(s.traces_pending, r.U32());
  return resp;
}

void TracesRequest::Encode(wire::Writer& w) const { w.U32(max); }

Result<TracesRequest> TracesRequest::Decode(wire::Reader& r) {
  TracesRequest req;
  IPSA_ASSIGN_OR_RETURN(req.max, r.U32());
  return req;
}

void TracesResponse::Encode(wire::Writer& w) const {
  w.U32(static_cast<uint32_t>(traces.size()));
  for (const telemetry::TraceRecord& t : traces) {
    w.U64(t.seq);
    w.U64(t.config_epoch);
    w.U32(t.in_port);
    PutProcessResult(w, t.result);
    w.U32(static_cast<uint32_t>(t.trace.parsed_headers.size()));
    for (const std::string& h : t.trace.parsed_headers) w.Str(h);
    w.U32(static_cast<uint32_t>(t.trace.steps.size()));
    for (const telemetry::TraceStep& step : t.trace.steps) {
      w.U32(step.unit);
      w.Str(step.stage);
      w.Str(step.table);
      w.Bool(step.hit);
      w.Str(step.action);
      w.U64(step.parse_bytes);
    }
  }
}

Result<TracesResponse> TracesResponse::Decode(wire::Reader& r) {
  IPSA_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  if (count > kMaxTraceRecords) {
    return InvalidArgument("trace record count out of bounds");
  }
  TracesResponse resp;
  resp.traces.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    telemetry::TraceRecord t;
    IPSA_ASSIGN_OR_RETURN(t.seq, r.U64());
    IPSA_ASSIGN_OR_RETURN(t.config_epoch, r.U64());
    IPSA_ASSIGN_OR_RETURN(t.in_port, r.U32());
    IPSA_ASSIGN_OR_RETURN(t.result, GetProcessResult(r));
    IPSA_ASSIGN_OR_RETURN(uint32_t headers, r.U32());
    if (headers > kMaxTraceHeaders) {
      return InvalidArgument("trace header count out of bounds");
    }
    t.trace.parsed_headers.reserve(headers);
    for (uint32_t h = 0; h < headers; ++h) {
      IPSA_ASSIGN_OR_RETURN(std::string name, r.Str());
      t.trace.parsed_headers.push_back(std::move(name));
    }
    IPSA_ASSIGN_OR_RETURN(uint32_t steps, r.U32());
    if (steps > kMaxTraceSteps) {
      return InvalidArgument("trace step count out of bounds");
    }
    t.trace.steps.reserve(steps);
    for (uint32_t sidx = 0; sidx < steps; ++sidx) {
      telemetry::TraceStep step;
      IPSA_ASSIGN_OR_RETURN(step.unit, r.U32());
      IPSA_ASSIGN_OR_RETURN(step.stage, r.Str());
      IPSA_ASSIGN_OR_RETURN(step.table, r.Str());
      IPSA_ASSIGN_OR_RETURN(step.hit, r.Bool());
      IPSA_ASSIGN_OR_RETURN(step.action, r.Str());
      IPSA_ASSIGN_OR_RETURN(step.parse_bytes, r.U64());
      t.trace.steps.push_back(std::move(step));
    }
    resp.traces.push_back(std::move(t));
  }
  return resp;
}

}  // namespace ipsa::rpc
