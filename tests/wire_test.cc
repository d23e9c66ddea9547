// Wire codec and protocol robustness: roundtrips, strict-decode failures,
// frame-stream corruption, and the dispatcher's never-crash guarantees.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>

#include <cstring>
#include <span>
#include <vector>

#include "rpc/protocol.h"
#include "rpc/server.h"
#include "wire/socket.h"
#include "wire/udp_batch.h"
#include "wire/wire.h"

namespace ipsa::wire {
namespace {

TEST(Writer, LittleEndianLayout) {
  Writer w;
  w.U8(0xAB);
  w.U16(0x1234);
  w.U32(0xDEADBEEF);
  std::vector<uint8_t> bytes = w.Take();
  ASSERT_EQ(bytes.size(), 7u);
  EXPECT_EQ(bytes[0], 0xAB);
  EXPECT_EQ(bytes[1], 0x34);  // u16 LSB first
  EXPECT_EQ(bytes[2], 0x12);
  EXPECT_EQ(bytes[3], 0xEF);  // u32 LSB first
  EXPECT_EQ(bytes[6], 0xDE);
}

TEST(ReaderWriter, PrimitiveRoundtrip) {
  Writer w;
  w.U8(7);
  w.U16(65535);
  w.U32(0x01020304);
  w.U64(0x1122334455667788ull);
  w.F64(3.25);
  w.Bool(true);
  w.Str("hello rP4");
  w.Bits(mem::BitString(48, 0x02AABBCCDDEEull));
  std::vector<uint8_t> bytes = w.Take();

  Reader r(bytes);
  EXPECT_EQ(*r.U8(), 7);
  EXPECT_EQ(*r.U16(), 65535);
  EXPECT_EQ(*r.U32(), 0x01020304u);
  EXPECT_EQ(*r.U64(), 0x1122334455667788ull);
  EXPECT_EQ(*r.F64(), 3.25);
  EXPECT_EQ(*r.Bool(), true);
  EXPECT_EQ(*r.Str(), "hello rP4");
  mem::BitString bits = *r.Bits();
  EXPECT_EQ(bits.bit_width(), 48u);
  EXPECT_EQ(bits.ToUint64(), 0x02AABBCCDDEEull);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Reader, TruncationFailsEveryAccessor) {
  std::vector<uint8_t> one{0x42};
  EXPECT_FALSE(Reader(one).U16().ok());
  EXPECT_FALSE(Reader(one).U32().ok());
  EXPECT_FALSE(Reader(one).U64().ok());
  EXPECT_FALSE(Reader(one).Str().ok());
  EXPECT_FALSE(Reader(one).Bits().ok());
  EXPECT_TRUE(Reader(one).U8().ok());
}

TEST(Reader, StringLengthPastEndFails) {
  Writer w;
  w.U32(1000);  // claims 1000 bytes, provides 2
  w.U8('h');
  w.U8('i');
  std::vector<uint8_t> bytes = w.Take();
  Reader r(bytes);
  EXPECT_FALSE(r.Str().ok());
}

TEST(Reader, OversizedStringBoundFails) {
  Writer w;
  w.U32(kMaxStringBytes + 1);
  std::vector<uint8_t> bytes = w.Take();
  Reader r(bytes);
  // Rejected on the bound before any attempt to read/allocate the body.
  EXPECT_FALSE(r.Str().ok());
}

TEST(Reader, OversizedBitStringBoundFails) {
  Writer w;
  w.U32(kMaxBitStringBits + 1);
  std::vector<uint8_t> bytes = w.Take();
  Reader r(bytes);
  EXPECT_FALSE(r.Bits().ok());
}

TEST(FrameCodec, RoundtripSingleFrame) {
  Frame in{.type = 5, .seq = 99, .payload = {1, 2, 3, 4, 5}};
  FrameDecoder dec;
  dec.Feed(EncodeFrame(in));
  auto out = dec.Next();
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->has_value());
  EXPECT_EQ(**out, in);
  auto end = dec.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(FrameCodec, ByteByByteFeed) {
  Frame in{.type = 7, .seq = 3, .payload = std::vector<uint8_t>(100, 0xCD)};
  std::vector<uint8_t> bytes = EncodeFrame(in);
  FrameDecoder dec;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.Feed(std::span<const uint8_t>(&bytes[i], 1));
    auto out = dec.Next();
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out->has_value()) << "frame complete too early at byte " << i;
  }
  dec.Feed(std::span<const uint8_t>(&bytes.back(), 1));
  auto out = dec.Next();
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->has_value());
  EXPECT_EQ(**out, in);
}

TEST(FrameCodec, MultipleFramesInOneFeed) {
  Frame a{.type = 1, .seq = 1, .payload = {0xAA}};
  Frame b{.type = 3, .seq = 2, .payload = {}};
  Frame c{.type = 5, .seq = 3, .payload = std::vector<uint8_t>(9000, 1)};
  std::vector<uint8_t> bytes;
  for (const Frame* f : {&a, &b, &c}) {
    std::vector<uint8_t> enc = EncodeFrame(*f);
    bytes.insert(bytes.end(), enc.begin(), enc.end());
  }
  FrameDecoder dec;
  dec.Feed(bytes);
  EXPECT_EQ(**dec.Next(), a);
  EXPECT_EQ(**dec.Next(), b);
  EXPECT_EQ(**dec.Next(), c);
  EXPECT_FALSE((*dec.Next()).has_value());
}

TEST(FrameCodec, BadMagicPoisonsStream) {
  std::vector<uint8_t> bytes = EncodeFrame(Frame{.type = 1, .seq = 1});
  bytes[0] ^= 0xFF;
  FrameDecoder dec;
  dec.Feed(bytes);
  EXPECT_FALSE(dec.Next().ok());
  EXPECT_TRUE(dec.corrupt());
  // Poisoned for good: even valid bytes afterwards don't revive it.
  dec.Feed(EncodeFrame(Frame{.type = 1, .seq = 2}));
  EXPECT_FALSE(dec.Next().ok());
}

TEST(FrameCodec, NonZeroFlagsPoisonStream) {
  std::vector<uint8_t> bytes = EncodeFrame(Frame{.type = 1, .seq = 1});
  bytes[6] = 1;  // flags live at offset 6..7
  FrameDecoder dec;
  dec.Feed(bytes);
  EXPECT_FALSE(dec.Next().ok());
  EXPECT_TRUE(dec.corrupt());
}

TEST(FrameCodec, OversizedLengthPoisonsStream) {
  std::vector<uint8_t> bytes = EncodeFrame(Frame{.type = 1, .seq = 1});
  uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(&bytes[12], &huge, sizeof(huge));
  FrameDecoder dec;
  dec.Feed(bytes);
  EXPECT_FALSE(dec.Next().ok());
  EXPECT_TRUE(dec.corrupt());
}

TEST(FrameCodec, GarbageIsRejectedNotCrashed) {
  std::vector<uint8_t> garbage(1024);
  uint32_t x = 0x9E3779B9;
  for (auto& byte : garbage) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    byte = static_cast<uint8_t>(x);
  }
  FrameDecoder dec;
  dec.Feed(garbage);
  EXPECT_FALSE(dec.Next().ok());
  EXPECT_TRUE(dec.corrupt());
}

TEST(FrameCodec, ResetClearsCorruption) {
  FrameDecoder dec;
  dec.Feed(std::vector<uint8_t>(kFrameHeaderBytes, 0));
  EXPECT_FALSE(dec.Next().ok());
  dec.Reset();
  EXPECT_FALSE(dec.corrupt());
  Frame f{.type = 2, .seq = 9, .payload = {7}};
  dec.Feed(EncodeFrame(f));
  EXPECT_EQ(**dec.Next(), f);
}

// ---------------------------------------------------------------------------
// Batched UDP I/O. Every loopback test runs twice: once on the native
// recvmmsg/sendmmsg path and once with ForcePortable(true), so the
// portable fallback stays equivalent on the machine that has the fast
// path.
// ---------------------------------------------------------------------------

struct BatchPair {
  Socket a;
  Socket b;
  sockaddr_in to_b{};

  static BatchPair Make() {
    BatchPair p;
    auto a = UdpBind("127.0.0.1", 0);
    auto b = UdpBind("127.0.0.1", 0);
    EXPECT_TRUE(a.ok() && b.ok());
    p.a = std::move(*a);
    p.b = std::move(*b);
    EXPECT_TRUE(SetNonBlocking(p.a.fd(), true).ok());
    EXPECT_TRUE(SetNonBlocking(p.b.fd(), true).ok());
    auto b_port = LocalPort(p.b);
    EXPECT_TRUE(b_port.ok());
    p.to_b.sin_family = AF_INET;
    p.to_b.sin_port = htons(*b_port);
    p.to_b.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return p;
  }
};

// Loopback delivery is reliable but not instant; poll for readability.
void AwaitReadable(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  ASSERT_GT(::poll(&pfd, 1, 5000), 0) << "datagrams never arrived";
}

void BurstRoundtrip(bool portable) {
  BatchPair p = BatchPair::Make();
  constexpr uint32_t kCount = 48;

  UdpBatchSender sender(kCount);
  sender.ForcePortable(portable);
  std::vector<std::vector<uint8_t>> payloads;
  for (uint32_t i = 0; i < kCount; ++i) {
    payloads.push_back({static_cast<uint8_t>(i), 0xAB,
                        static_cast<uint8_t>(i * 3)});
  }
  for (uint32_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(sender.Add(payloads[i], p.to_b));
  }
  EXPECT_EQ(sender.pending(), kCount);
  auto sent = sender.Flush(p.a.fd());
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  EXPECT_EQ(*sent, kCount);
  EXPECT_EQ(sender.pending(), 0u);

  UdpBatchReceiver receiver(/*batch=*/16);
  receiver.ForcePortable(portable);
  auto a_port = LocalPort(p.a);
  ASSERT_TRUE(a_port.ok());
  uint32_t got = 0;
  while (got < kCount) {
    AwaitReadable(p.b.fd());
    auto n = receiver.Recv(p.b.fd());
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_GT(*n, 0u);
    ASSERT_LE(*n, receiver.batch());
    for (uint32_t i = 0; i < *n; ++i) {
      std::span<uint8_t> data = receiver.data(i);
      const std::vector<uint8_t>& want = payloads[got + i];
      EXPECT_EQ(std::vector<uint8_t>(data.begin(), data.end()), want);
      EXPECT_EQ(receiver.from(i).sin_port, htons(*a_port));
      EXPECT_EQ(ntohl(receiver.from(i).sin_addr.s_addr), INADDR_LOOPBACK);
    }
    got += *n;
  }
  EXPECT_EQ(got, kCount);
  // Socket drained: the next Recv reports 0 without blocking.
  auto empty = receiver.Recv(p.b.fd());
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, 0u);
}

TEST(UdpBatch, BurstRoundtripNative) { BurstRoundtrip(/*portable=*/false); }
TEST(UdpBatch, BurstRoundtripPortable) { BurstRoundtrip(/*portable=*/true); }

void ZeroLengthDatagram(bool portable) {
  BatchPair p = BatchPair::Make();
  UdpBatchSender sender(4);
  sender.ForcePortable(portable);
  ASSERT_TRUE(sender.Add(std::span<const uint8_t>(), p.to_b));
  auto sent = sender.Flush(p.a.fd());
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(*sent, 1u);

  UdpBatchReceiver receiver(4);
  receiver.ForcePortable(portable);
  AwaitReadable(p.b.fd());
  auto n = receiver.Recv(p.b.fd());
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 1u);
  EXPECT_TRUE(receiver.data(0).empty());
}

TEST(UdpBatch, ZeroLengthDatagramNative) {
  ZeroLengthDatagram(/*portable=*/false);
}
TEST(UdpBatch, ZeroLengthDatagramPortable) {
  ZeroLengthDatagram(/*portable=*/true);
}

TEST(UdpBatch, SenderRejectsWhenFull) {
  UdpBatchSender sender(2);
  std::vector<uint8_t> payload{1, 2, 3};
  sockaddr_in to{};
  EXPECT_TRUE(sender.Add(payload, to));
  EXPECT_TRUE(sender.Add(payload, to));
  EXPECT_FALSE(sender.Add(payload, to));
  EXPECT_EQ(sender.pending(), 2u);
}

TEST(UdpBatch, ConstructorClampsBatchToBounds) {
  EXPECT_EQ(UdpBatchReceiver(0).batch(), kMinUdpBatch);
  EXPECT_EQ(UdpBatchReceiver(100000).batch(), kMaxUdpBatch);
  EXPECT_EQ(UdpBatchSender(0).batch(), kMinUdpBatch);
  EXPECT_EQ(UdpBatchSender(100000).batch(), kMaxUdpBatch);
}

TEST(UdpBatch, RecvOnDrainedSocketReturnsZero) {
  BatchPair p = BatchPair::Make();
  UdpBatchReceiver receiver(8);
  auto n = receiver.Recv(p.b.fd());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  receiver.ForcePortable(true);
  n = receiver.Recv(p.b.fd());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

}  // namespace
}  // namespace ipsa::wire

namespace ipsa::rpc {
namespace {

table::Entry TestEntry() {
  table::Entry e;
  e.key = mem::BitString(32, 0x0A000001);
  e.mask = mem::BitString(32, 0xFFFFFF00);
  e.prefix_len = 24;
  e.priority = 5;
  e.action_id = 3;
  e.action_data = mem::BitString(16, 100);
  return e;
}

TEST(Protocol, StatusPrefixRoundtrip) {
  for (const Status& s :
       {OkStatus(), NotFound("no such table 'x'"), DeadlineExceeded("late"),
        Unavailable("down")}) {
    wire::Writer w;
    PutStatus(w, s);
    std::vector<uint8_t> bytes = w.Take();
    wire::Reader r(bytes);
    Status out = OkStatus();
    ASSERT_TRUE(GetStatus(r, out).ok());
    EXPECT_EQ(out.code(), s.code());
    EXPECT_EQ(out.message(), s.message());
  }
}

TEST(Protocol, UnknownStatusCodeRejected) {
  wire::Writer w;
  w.U16(999);
  w.Str("???");
  std::vector<uint8_t> bytes = w.Take();
  wire::Reader r(bytes);
  Status out = OkStatus();
  EXPECT_FALSE(GetStatus(r, out).ok());
}

TEST(Protocol, TableOpRoundtrip) {
  TableOp in;
  in.op = TableOpKind::kModify;
  in.table = "ipv4_lpm";
  in.entry = TestEntry();
  wire::Writer w;
  in.Encode(w);
  std::vector<uint8_t> bytes = w.Take();
  wire::Reader r(bytes);
  auto out = TableOp::Decode(r);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->op, TableOpKind::kModify);
  EXPECT_EQ(out->table, "ipv4_lpm");
  EXPECT_EQ(out->entry.key.ToUint64(), in.entry.key.ToUint64());
  EXPECT_EQ(out->entry.mask.ToUint64(), in.entry.mask.ToUint64());
  EXPECT_EQ(out->entry.prefix_len, 24u);
  EXPECT_EQ(out->entry.priority, 5u);
  EXPECT_EQ(out->entry.action_id, 3u);
  EXPECT_EQ(out->entry.action_data.ToUint64(), 100u);
}

TEST(Protocol, BatchSizeBoundEnforced) {
  wire::Writer w;
  w.U32(kMaxBatchOps + 1);  // claimed op count
  std::vector<uint8_t> bytes = w.Take();
  wire::Reader r(bytes);
  EXPECT_FALSE(TableBatchRequest::Decode(r).ok());

  // A bulk frame's hostile op count fails before any op is read or
  // reserved for; at the bound, the count outruns the payload and fails
  // cleanly instead of reading past the end.
  for (uint32_t count : {kMaxBatchOps + 1, kMaxBatchOps}) {
    wire::Writer bulk;
    bulk.U32(count);
    bytes = bulk.Take();
    wire::Reader br(bytes);
    EXPECT_FALSE(TableBulkRequest::Decode(br).ok()) << count;
  }
  wire::Writer failures;
  failures.U32(0);                 // applied
  failures.U32(kMaxBatchOps + 1);  // claimed failure count
  bytes = failures.Take();
  wire::Reader fr(bytes);
  EXPECT_FALSE(TableBulkResponse::Decode(fr).ok());
}

TEST(Protocol, TableBulkRequestRoundtripOverASlice) {
  std::vector<TableOp> ops(4);
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i].op = i == 2 ? TableOpKind::kModify : TableOpKind::kAdd;
    ops[i].table = "t" + std::to_string(i);
    ops[i].entry = TestEntry();
    ops[i].entry.priority = static_cast<uint32_t>(i);
  }
  // The client frames a window of its op list in place: ops 1..2.
  wire::Writer w;
  TableBulkRequest::Encode(std::span(ops).subspan(1, 2), w);
  std::vector<uint8_t> bytes = w.Take();
  wire::Reader r(bytes);
  auto out = TableBulkRequest::Decode(r);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(out->ops.size(), 2u);
  EXPECT_EQ(out->ops[0].op, TableOpKind::kAdd);
  EXPECT_EQ(out->ops[0].table, "t1");
  EXPECT_EQ(out->ops[0].entry.priority, 1u);
  EXPECT_EQ(out->ops[1].op, TableOpKind::kModify);
  EXPECT_EQ(out->ops[1].table, "t2");
  EXPECT_EQ(out->ops[1].entry.priority, 2u);
  EXPECT_EQ(out->ops[1].entry.key.ToUint64(), ops[2].entry.key.ToUint64());
  EXPECT_EQ(out->ops[1].entry.action_data.ToUint64(), 100u);
}

TEST(Protocol, TableBulkResponseRoundtrip) {
  TableBulkResponse in;
  in.applied = 7;
  in.failures.push_back({3, static_cast<uint16_t>(StatusCode::kAlreadyExists),
                         "duplicate key"});
  in.failures.push_back({9, static_cast<uint16_t>(StatusCode::kNotFound), ""});
  wire::Writer w;
  in.Encode(w);
  std::vector<uint8_t> bytes = w.Take();
  wire::Reader r(bytes);
  auto out = TableBulkResponse::Decode(r);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(out->applied, 7u);
  ASSERT_EQ(out->failures.size(), 2u);
  EXPECT_EQ(out->failures[0].index, 3u);
  EXPECT_EQ(out->failures[0].code,
            static_cast<uint16_t>(StatusCode::kAlreadyExists));
  EXPECT_EQ(out->failures[0].message, "duplicate key");
  EXPECT_EQ(out->failures[1].index, 9u);
  EXPECT_EQ(out->failures[1].message, "");
}

TEST(Protocol, ApiSpecRoundtrip) {
  compiler::ApiSpec in;
  compiler::TableApi t;
  t.table = "nexthop";
  t.match_kind = table::MatchKind::kExact;
  t.key_field_widths = {16};
  t.actions["set_port"] = {2, {9, 48}};
  t.actions["drop"] = {1, {}};
  in.tables["nexthop"] = t;

  wire::Writer w;
  PutApiSpec(w, in);
  std::vector<uint8_t> bytes = w.Take();
  wire::Reader r(bytes);
  auto out = GetApiSpec(r);
  ASSERT_TRUE(out.ok());
  const compiler::TableApi* got = out->Find("nexthop");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->match_kind, table::MatchKind::kExact);
  EXPECT_EQ(got->key_field_widths, std::vector<uint32_t>{16});
  ASSERT_EQ(got->actions.size(), 2u);
  EXPECT_EQ(got->actions.at("set_port").first, 2u);
  EXPECT_EQ(got->actions.at("set_port").second, (std::vector<uint32_t>{9, 48}));
  EXPECT_TRUE(got->actions.at("drop").second.empty());
}

// --- dispatcher robustness ---------------------------------------------------

class FakeBackend : public Backend {
 public:
  BackendInfo Info() override {
    return BackendInfo{"ipsa", 16, installed_, epoch_};
  }
  Result<InstallOutcome> Install(InstallKind, const std::string&) override {
    installed_ = true;
    return InstallOutcome{1.0, 2.0, ++epoch_};
  }
  Status ApplyTableOp(const TableOp& op) override {
    if (op.table == "bad") return NotFound("no such table 'bad'");
    ++ops_applied_;
    return OkStatus();
  }
  Result<compiler::ApiSpec> Api() override { return compiler::ApiSpec{}; }
  Result<StatsResponse> QueryStats() override { return StatsResponse{}; }
  Result<uint32_t> Drain(uint32_t) override { return 0u; }

  int ops_applied() const { return ops_applied_; }

 private:
  bool installed_ = false;
  uint64_t epoch_ = 0;
  int ops_applied_ = 0;
};

wire::Frame MakeHello(uint32_t seq = 1,
                      uint32_t version = kProtocolVersion) {
  HelloRequest hello;
  hello.version = version;
  hello.client = "test";
  wire::Writer w;
  hello.Encode(w);
  return wire::Frame{static_cast<uint16_t>(MsgType::kHelloReq), seq,
                     w.Take()};
}

Status RespStatus(const wire::Frame& resp) {
  wire::Reader r(resp.payload);
  Status out = OkStatus();
  EXPECT_TRUE(GetStatus(r, out).ok());
  return out;
}

TEST(Dispatcher, CallBeforeHandshakeFailsTheCallOnly) {
  FakeBackend backend;
  Dispatcher d(backend);
  wire::Frame req{static_cast<uint16_t>(MsgType::kStatsReq), 7, {}};
  wire::Frame resp = d.Handle(req);
  EXPECT_EQ(resp.type, static_cast<uint16_t>(MsgType::kStatsResp));
  EXPECT_EQ(resp.seq, 7u);
  EXPECT_EQ(RespStatus(resp).code(), StatusCode::kFailedPrecondition);
  // The session is still alive: handshake then call works.
  EXPECT_EQ(RespStatus(d.Handle(MakeHello())).code(), StatusCode::kOk);
  EXPECT_EQ(RespStatus(d.Handle(req)).code(), StatusCode::kOk);
}

TEST(Dispatcher, VersionMismatchRejected) {
  FakeBackend backend;
  Dispatcher d(backend);
  wire::Frame resp = d.Handle(MakeHello(1, kProtocolVersion + 1));
  EXPECT_NE(RespStatus(resp).code(), StatusCode::kOk);
  EXPECT_FALSE(d.handshaken());
}

TEST(Dispatcher, UnknownTagGetsErrorResponse) {
  FakeBackend backend;
  Dispatcher d(backend);
  d.Handle(MakeHello());
  wire::Frame req{999, 4, {}};
  wire::Frame resp = d.Handle(req);
  EXPECT_EQ(resp.seq, 4u);
  EXPECT_NE(RespStatus(resp).code(), StatusCode::kOk);
}

TEST(Dispatcher, ResponseTagsToRequestsGetErrorResponse) {
  FakeBackend backend;
  Dispatcher d(backend);
  d.Handle(MakeHello());
  // A client must never send a response tag; the dispatcher answers with an
  // error rather than crashing or echoing.
  wire::Frame req{static_cast<uint16_t>(MsgType::kStatsResp), 5, {}};
  EXPECT_NE(RespStatus(d.Handle(req)).code(), StatusCode::kOk);
}

TEST(Dispatcher, GarbagePayloadFailsTheCallOnly) {
  FakeBackend backend;
  Dispatcher d(backend);
  d.Handle(MakeHello());
  wire::Frame req{static_cast<uint16_t>(MsgType::kInstallReq), 8,
                  {0xFF, 0xFF, 0xFF}};
  wire::Frame resp = d.Handle(req);
  EXPECT_EQ(resp.type, static_cast<uint16_t>(MsgType::kInstallResp));
  EXPECT_NE(RespStatus(resp).code(), StatusCode::kOk);
  // Next well-formed call still succeeds.
  wire::Frame stats{static_cast<uint16_t>(MsgType::kStatsReq), 9, {}};
  EXPECT_EQ(RespStatus(d.Handle(stats)).code(), StatusCode::kOk);
}

TEST(Dispatcher, BatchStopsAtFirstFailureAndReportsIndex) {
  FakeBackend backend;
  Dispatcher d(backend);
  d.Handle(MakeHello());

  TableBatchRequest batch;
  for (const char* table : {"ok1", "ok2", "bad", "ok3"}) {
    TableOp op;
    op.table = table;
    op.entry = TestEntry();
    batch.ops.push_back(op);
  }
  wire::Writer w;
  batch.Encode(w);
  wire::Frame req{static_cast<uint16_t>(MsgType::kTableBatchReq), 10,
                  w.Take()};
  wire::Frame resp = d.Handle(req);
  Status s = RespStatus(resp);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("batch op 2"), std::string::npos) << s.message();
  EXPECT_EQ(backend.ops_applied(), 2);  // ok1, ok2 applied; bad stopped it
}

}  // namespace
}  // namespace ipsa::rpc
