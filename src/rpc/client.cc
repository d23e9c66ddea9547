#include "rpc/client.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>

namespace ipsa::rpc {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Client::Close() {
  sock_.Close();
  decoder_.Reset();
}

void Client::SeverConnectionForTest() { sock_.Close(); }

Status Client::DialOnce() {
  decoder_.Reset();
  IPSA_ASSIGN_OR_RETURN(
      sock_, wire::TcpConnect(options_.host, options_.port,
                              options_.connect_timeout_ms));
  // Handshake inline so a version-mismatched server is rejected before any
  // real call goes out.
  HelloRequest hello;
  hello.client = options_.client_name;
  wire::Writer w;
  hello.Encode(w);
  auto body = Call(MsgType::kHelloReq, w.Take());
  if (!body.ok()) {
    sock_.Close();
    return body.status();
  }
  wire::Reader r(*body);
  auto info = HelloResponse::Decode(r);
  if (!info.ok()) {
    sock_.Close();
    return info.status();
  }
  info_ = std::move(*info);
  return OkStatus();
}

Status Client::Connect() { return EnsureConnected(); }

Status Client::EnsureConnected() {
  if (sock_.valid()) return OkStatus();
  int delay_ms = options_.backoff_initial_ms;
  Status last = Unavailable("not connected");
  for (int attempt = 0; attempt < options_.max_connect_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      delay_ms = std::min(delay_ms * 2, options_.backoff_max_ms);
    }
    last = DialOnce();
    if (last.ok()) return OkStatus();
  }
  return Status(last.code(),
                "giving up after " +
                    std::to_string(options_.max_connect_attempts) +
                    " connect attempts: " + last.message());
}

Result<std::vector<uint8_t>> Client::Call(MsgType type,
                                          std::vector<uint8_t> payload) {
  // The handshake itself calls Call() while the socket is already up; every
  // other entry point goes through EnsureConnected() first.
  if (!sock_.valid() && type != MsgType::kHelloReq) {
    IPSA_RETURN_IF_ERROR(EnsureConnected());
  }
  if (!sock_.valid()) return Unavailable("not connected");

  wire::Frame req;
  req.type = static_cast<uint16_t>(type);
  req.seq = next_seq_++;
  req.payload = std::move(payload);

  const int64_t deadline = NowMs() + options_.call_timeout_ms;
  Status sent = wire::SendAll(sock_.fd(), wire::EncodeFrame(req),
                              options_.call_timeout_ms);
  if (!sent.ok()) {
    // The stream may hold a half-written frame; it is unusable.
    Close();
    return sent;
  }

  uint8_t buf[64 * 1024];
  while (true) {
    // Drain any frames already buffered before touching the socket.
    while (true) {
      auto next = decoder_.Next();
      if (!next.ok()) {
        Close();
        return next.status();
      }
      if (!next->has_value()) break;
      wire::Frame frame = std::move(**next);
      if (frame.seq != req.seq ||
          frame.type != static_cast<uint16_t>(req.type + 1)) {
        // A stale response (e.g. for a call abandoned by a previous timeout
        // on this connection — impossible after Close(), but cheap to
        // tolerate) is dropped, not fatal.
        continue;
      }
      wire::Reader r(frame.payload);
      Status remote = OkStatus();
      IPSA_RETURN_IF_ERROR(GetStatus(r, remote));
      if (!remote.ok()) return remote;
      return std::vector<uint8_t>(frame.payload.begin() + (frame.payload.size() - r.remaining()),
                                  frame.payload.end());
    }
    int64_t left = deadline - NowMs();
    if (left <= 0) {
      Close();
      return DeadlineExceeded(std::string(MsgTypeName(req.type)) +
                              " timed out after " +
                              std::to_string(options_.call_timeout_ms) +
                              " ms");
    }
    auto n = wire::RecvSome(sock_.fd(), buf, static_cast<int>(left));
    if (!n.ok()) {
      Close();
      if (n.status().code() == StatusCode::kDeadlineExceeded) {
        return DeadlineExceeded(std::string(MsgTypeName(req.type)) +
                                " timed out after " +
                                std::to_string(options_.call_timeout_ms) +
                                " ms");
      }
      return n.status();
    }
    if (*n == 0) {
      Close();
      return Unavailable("server closed the connection");
    }
    decoder_.Feed(std::span<const uint8_t>(buf, *n));
  }
}

Result<wire::Frame> Client::RecvResponse(uint16_t want_type, uint32_t want_seq,
                                         int64_t deadline_ms) {
  if (!sock_.valid()) return Unavailable("not connected");
  uint8_t buf[64 * 1024];
  while (true) {
    // Drain any frames already buffered before touching the socket.
    while (true) {
      auto next = decoder_.Next();
      if (!next.ok()) {
        Close();
        return next.status();
      }
      if (!next->has_value()) break;
      wire::Frame frame = std::move(**next);
      if (frame.type == want_type && frame.seq == want_seq) return frame;
      // Stale frame for an abandoned call — drop, not fatal (responses are
      // in-order, so anything else can only be older than what we want).
    }
    int64_t left = deadline_ms - NowMs();
    if (left <= 0) {
      Close();
      return DeadlineExceeded(std::string(MsgTypeName(want_type)) +
                              " timed out");
    }
    auto n = wire::RecvSome(sock_.fd(), buf, static_cast<int>(left));
    if (!n.ok()) {
      Close();
      return n.status();
    }
    if (*n == 0) {
      Close();
      return Unavailable("server closed the connection");
    }
    decoder_.Feed(std::span<const uint8_t>(buf, *n));
  }
}

Result<BulkResult> Client::ApplyBulk(
    const std::vector<TableOp>& ops, const BulkOptions& bulk,
    const std::function<void(const BulkProgress&)>& progress) {
  const uint32_t per_frame =
      std::clamp<uint32_t>(bulk.ops_per_frame, 1, kMaxBatchOps);
  const uint32_t window = std::max<uint32_t>(1, bulk.window);
  IPSA_RETURN_IF_ERROR(EnsureConnected());

  struct Pending {
    uint32_t seq = 0;
    uint64_t first_index = 0;  // global index of this frame's first op
    uint32_t op_count = 0;
  };
  std::deque<Pending> pending;
  BulkResult result;
  BulkProgress prog;
  prog.frames_total = (ops.size() + per_frame - 1) / per_frame;

  // Blocks on the oldest in-flight frame's ack, folding its per-op outcome
  // into the running result (failure indexes rebased to the global list).
  // A frame-level error (bad status prefix: no design installed, decode
  // failure) aborts the stream — per-op failures do not.
  auto await_oldest = [&]() -> Status {
    const Pending p = pending.front();
    pending.pop_front();
    IPSA_ASSIGN_OR_RETURN(
        wire::Frame frame,
        RecvResponse(static_cast<uint16_t>(MsgType::kTableBulkResp), p.seq,
                     NowMs() + options_.call_timeout_ms));
    wire::Reader r(frame.payload);
    Status remote = OkStatus();
    Status prefix = GetStatus(r, remote);
    if (!prefix.ok()) {
      Close();
      return prefix;
    }
    if (!remote.ok()) {
      Close();
      return remote;
    }
    auto resp = TableBulkResponse::Decode(r);
    if (!resp.ok()) {
      Close();
      return resp.status();
    }
    result.applied += resp->applied;
    for (BulkFailure& f : resp->failures) {
      f.index = static_cast<uint32_t>(p.first_index + f.index);
      result.failures.push_back(std::move(f));
    }
    ++prog.frames_acked;
    prog.ops_acked += p.op_count;
    prog.applied = result.applied;
    prog.failed = result.failures.size();
    if (progress) progress(prog);
    return OkStatus();
  };

  for (uint64_t start = 0; start < ops.size(); start += per_frame) {
    const uint32_t count =
        static_cast<uint32_t>(std::min<uint64_t>(per_frame, ops.size() - start));
    wire::Writer w;
    TableBulkRequest::Encode(std::span(ops).subspan(start, count), w);
    wire::Frame req;
    req.type = static_cast<uint16_t>(MsgType::kTableBulkReq);
    req.seq = next_seq_++;
    req.payload = w.Take();
    // The pipelining core: only block once the window is full, so up to
    // `window` frames ride the wire while the server works.
    if (pending.size() >= window) IPSA_RETURN_IF_ERROR(await_oldest());
    Status sent = wire::SendAll(sock_.fd(), wire::EncodeFrame(req),
                                options_.call_timeout_ms);
    if (!sent.ok()) {
      Close();
      return sent;
    }
    pending.push_back(Pending{req.seq, start, count});
  }
  while (!pending.empty()) IPSA_RETURN_IF_ERROR(await_oldest());
  return result;
}

Result<InstallResponse> Client::Install(InstallKind kind,
                                        const std::string& source) {
  InstallRequest req;
  req.kind = kind;
  req.source = source;
  wire::Writer w;
  req.Encode(w);
  IPSA_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        Call(MsgType::kInstallReq, w.Take()));
  wire::Reader r(body);
  return InstallResponse::Decode(r);
}

Status Client::TableCall(TableOpKind kind, const std::string& table,
                         const table::Entry& entry) {
  TableOp op;
  op.op = kind;
  op.table = table;
  op.entry = entry;
  wire::Writer w;
  op.Encode(w);
  return Call(MsgType::kTableOpReq, w.Take()).status();
}

Status Client::AddEntry(const std::string& table, const table::Entry& entry) {
  return TableCall(TableOpKind::kAdd, table, entry);
}

Status Client::ModifyEntry(const std::string& table,
                           const table::Entry& entry) {
  return TableCall(TableOpKind::kModify, table, entry);
}

Status Client::DeleteEntry(const std::string& table,
                           const table::Entry& entry) {
  return TableCall(TableOpKind::kDelete, table, entry);
}

Result<TableBatchResponse> Client::ApplyBatch(const std::vector<TableOp>& ops) {
  TableBatchRequest req;
  req.ops = ops;
  wire::Writer w;
  req.Encode(w);
  IPSA_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        Call(MsgType::kTableBatchReq, w.Take()));
  wire::Reader r(body);
  return TableBatchResponse::Decode(r);
}

Result<TableBatchResponse> Client::ApplyBatchPrepacked(
    std::vector<uint8_t> payload) {
  IPSA_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        Call(MsgType::kTableBatchReq, std::move(payload)));
  wire::Reader r(body);
  return TableBatchResponse::Decode(r);
}

Result<compiler::ApiSpec> Client::FetchApi() {
  IPSA_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        Call(MsgType::kApiReq, {}));
  wire::Reader r(body);
  return GetApiSpec(r);
}

Result<StatsResponse> Client::QueryStats() {
  IPSA_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        Call(MsgType::kStatsReq, {}));
  wire::Reader r(body);
  return StatsResponse::Decode(r);
}

Result<EpochResponse> Client::QueryEpoch() {
  IPSA_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        Call(MsgType::kEpochReq, {}));
  wire::Reader r(body);
  return EpochResponse::Decode(r);
}

Result<DrainResponse> Client::Drain(uint32_t workers) {
  DrainRequest req;
  req.workers = workers;
  wire::Writer w;
  req.Encode(w);
  IPSA_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        Call(MsgType::kDrainReq, w.Take()));
  wire::Reader r(body);
  return DrainResponse::Decode(r);
}

Result<MetricsResponse> Client::QueryMetrics() {
  IPSA_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        Call(MsgType::kMetricsReq, {}));
  wire::Reader r(body);
  return MetricsResponse::Decode(r);
}

Result<TracesResponse> Client::QueryTraces(uint32_t max) {
  TracesRequest req;
  req.max = max;
  wire::Writer w;
  req.Encode(w);
  IPSA_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        Call(MsgType::kTracesReq, w.Take()));
  wire::Reader r(body);
  return TracesResponse::Decode(r);
}

Status Client::ResetMetrics() {
  return Call(MsgType::kResetMetricsReq, {}).status();
}

}  // namespace ipsa::rpc
