// The switchd control protocol (docs/control_plane.md is the spec).
//
// Every message is one wire::Frame; requests use odd tags, the matching
// response is tag+1 with the same seq. A response payload always begins
// with a wire status (code u16 + message string); on a non-OK status the
// type-specific fields are absent. Payload decode failures are per-call
// errors — the frame stream itself stays healthy.
//
// Table entries travel pre-packed (the table::Entry layout the device
// consumes). Clients build them with controller::EntryBuilder against the
// ApiSpec fetched over the channel (kApiReq), so the same population code
// (controller/baseline.cc) runs unchanged in-process or over the wire.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compiler/rp4fc.h"
#include "table/table.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_ring.h"
#include "util/status.h"
#include "wire/wire.h"

namespace ipsa::rpc {

inline constexpr uint32_t kProtocolVersion = 1;

enum class MsgType : uint16_t {
  kHelloReq = 1,
  kHelloResp = 2,
  kInstallReq = 3,
  kInstallResp = 4,
  kTableOpReq = 5,
  kTableOpResp = 6,
  kTableBatchReq = 7,
  kTableBatchResp = 8,
  kApiReq = 9,
  kApiResp = 10,
  kStatsReq = 11,
  kStatsResp = 12,
  kEpochReq = 13,
  kEpochResp = 14,
  kDrainReq = 15,
  kDrainResp = 16,
  kMetricsReq = 17,
  kMetricsResp = 18,
  kTracesReq = 19,
  kTracesResp = 20,
  kResetMetricsReq = 21,
  kResetMetricsResp = 22,
  kTableBulkReq = 23,
  kTableBulkResp = 24,
};

std::string_view MsgTypeName(uint16_t type);

// --- response status prefix -------------------------------------------------

void PutStatus(wire::Writer& w, const Status& status);
// Decodes the status prefix into `out`. The returned Status reports decode
// failures only (`Result<Status>` would collide with Result's implicit
// Status constructor).
Status GetStatus(wire::Reader& r, Status& out);

// --- handshake ---------------------------------------------------------------

struct HelloRequest {
  uint32_t version = kProtocolVersion;
  std::string client;

  void Encode(wire::Writer& w) const;
  static Result<HelloRequest> Decode(wire::Reader& r);
};

struct HelloResponse {
  uint32_t version = kProtocolVersion;
  std::string arch;         // "pisa" | "ipsa"
  uint32_t port_count = 0;  // device ports
  uint64_t epoch = 0;       // configuration epoch (bumped per install)
  bool has_design = false;

  void Encode(wire::Writer& w) const;
  static Result<HelloResponse> Decode(wire::Reader& r);
};

// --- design install ----------------------------------------------------------

enum class InstallKind : uint8_t {
  kBaseP4 = 0,   // full program; both archs (PISA: monolithic reload)
  kBaseRp4 = 1,  // rP4 base design; ipsa only
  kScript = 2,   // runtime-update script (Fig. 5b/5c); ipsa only
};

struct InstallRequest {
  InstallKind kind = InstallKind::kBaseP4;
  std::string source;

  void Encode(wire::Writer& w) const;
  static Result<InstallRequest> Decode(wire::Reader& r);
};

struct InstallResponse {
  double compile_ms = 0;
  double load_ms = 0;
  uint64_t epoch = 0;

  void Encode(wire::Writer& w) const;
  static Result<InstallResponse> Decode(wire::Reader& r);
};

// --- runtime table ops --------------------------------------------------------

enum class TableOpKind : uint8_t {
  kAdd = 0,
  kModify = 1,  // upsert: erase (if present) + insert
  kDelete = 2,
};

struct TableOp {
  TableOpKind op = TableOpKind::kAdd;
  std::string table;
  table::Entry entry;

  void Encode(wire::Writer& w) const;
  static Result<TableOp> Decode(wire::Reader& r);
};

inline constexpr uint32_t kMaxBatchOps = 65536;

struct TableBatchRequest {
  std::vector<TableOp> ops;

  void Encode(wire::Writer& w) const;
  static Result<TableBatchRequest> Decode(wire::Reader& r);
};

struct TableBatchResponse {
  // Ops applied. On failure the response status is the first failing op's
  // error with its index in the message ("batch op N: ...") and no body.
  uint32_t applied = 0;

  void Encode(wire::Writer& w) const;
  static Result<TableBatchResponse> Decode(wire::Reader& r);
};

// --- streamed bulk inserts ----------------------------------------------------
//
// One frame of a pipelined bulk stream. Unlike kTableBatchReq, (a) the
// server applies EVERY op, collecting per-op failures instead of aborting
// at the first one, so a duplicate key mid-window degrades one entry, not
// the stream; (b) kAdd is strict — a duplicate identity fails with
// kAlreadyExists rather than upserting (use kModify for upserts); (c) each
// distinct table's index publication is batched across the frame: lpm,
// selector and ternary tables make the frame visible to lookups atomically
// at its end, while exact-table ops are visible as each lands and only
// their RCU grace period is deferred to the frame's end. Clients keep a
// window of these frames in flight before the first ack (see
// Client::ApplyBulk).

struct TableBulkRequest {
  std::vector<TableOp> ops;

  // Takes a span so a client frames a slice of its op list in place.
  static void Encode(std::span<const TableOp> ops, wire::Writer& w);
  static Result<TableBulkRequest> Decode(wire::Reader& r);
};

struct BulkFailure {
  uint32_t index = 0;  // op index within this frame
  uint16_t code = 0;   // StatusCode of the failure
  std::string message;
};

struct TableBulkResponse {
  uint32_t applied = 0;  // ops that succeeded in this frame
  std::vector<BulkFailure> failures;

  void Encode(wire::Writer& w) const;
  static Result<TableBulkResponse> Decode(wire::Reader& r);
};

// --- runtime API spec ---------------------------------------------------------

// Serializes the EntryBuilder-relevant subset of the ApiSpec: table name,
// match kind, key field widths, and the action name -> (id, param widths)
// map. FieldRefs (datapath bindings) stay server-side.
void PutApiSpec(wire::Writer& w, const compiler::ApiSpec& api);
Result<compiler::ApiSpec> GetApiSpec(wire::Reader& r);

// --- stats / epoch / drain ----------------------------------------------------

struct TableStatsRow {
  std::string table;
  uint8_t match_kind = 0;  // table::MatchKind
  uint32_t entries = 0;
  uint32_t size = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

struct StatsResponse {
  uint64_t packets_in = 0;
  uint64_t packets_out = 0;
  uint64_t packets_dropped = 0;
  uint64_t packets_marked = 0;
  uint64_t config_words_written = 0;
  uint64_t full_loads = 0;
  uint64_t template_writes = 0;
  uint64_t table_ops = 0;
  std::vector<TableStatsRow> tables;

  void Encode(wire::Writer& w) const;
  static Result<StatsResponse> Decode(wire::Reader& r);
};

struct EpochResponse {
  uint64_t epoch = 0;
  bool has_design = false;
  std::string arch;

  void Encode(wire::Writer& w) const;
  static Result<EpochResponse> Decode(wire::Reader& r);
};

struct DrainRequest {
  uint32_t workers = 1;

  void Encode(wire::Writer& w) const;
  static Result<DrainRequest> Decode(wire::Reader& r);
};

struct DrainResponse {
  uint32_t processed = 0;

  void Encode(wire::Writer& w) const;
  static Result<DrainResponse> Decode(wire::Reader& r);
};

// --- telemetry ---------------------------------------------------------------

// GetMetrics: kMetricsReq carries no payload; the response is the device's
// epoch-tagged telemetry snapshot (per-port/stage/table rows, update and
// drain windows, trace-ring occupancy).
struct MetricsResponse {
  std::string arch;  // "pisa" | "ipsa"
  telemetry::MetricsSnapshot snapshot;

  void Encode(wire::Writer& w) const;
  static Result<MetricsResponse> Decode(wire::Reader& r);
};

// GetTraces: pops up to `max` sampled packet traces (0 = all pending) from
// the device's trace ring without stopping the data plane.
struct TracesRequest {
  uint32_t max = 0;

  void Encode(wire::Writer& w) const;
  static Result<TracesRequest> Decode(wire::Reader& r);
};

inline constexpr uint32_t kMaxTraceRecords = 4096;

struct TracesResponse {
  std::vector<telemetry::TraceRecord> traces;

  void Encode(wire::Writer& w) const;
  static Result<TracesResponse> Decode(wire::Reader& r);
};

// ResetMetrics: kResetMetricsReq and kResetMetricsResp carry no payload
// beyond the response status; counters, histograms, and the trace ring are
// cleared while the telemetry configuration stays.

}  // namespace ipsa::rpc
