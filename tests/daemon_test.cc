// switchd end-to-end over loopback: the daemon's UDP packet path must be
// bit-identical to the in-process device, and the control channel must
// survive every kind of client misbehavior (garbage frames, mid-frame
// disconnects, oversized lengths, timeouts) failing only the guilty call
// or session — never the daemon.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <vector>

#include "controller/baseline.h"
#include "controller/designs.h"
#include "daemon/switchd.h"
#include "net/packet_builder.h"
#include "rpc/client.h"
#include "wire/socket.h"
#include "wire/udp_batch.h"

namespace ipsa::daemon {
namespace {

constexpr uint32_t kUdpPorts = 8;

rpc::ClientOptions MakeClientOptions(uint16_t port) {
  rpc::ClientOptions options;
  options.port = port;
  options.client_name = "daemon_test";
  options.call_timeout_ms = 10000;  // generous: CI machines can stall
  return options;
}

// Collects PopulateBaseline/Ecmp output as batched wire ops instead of
// installing directly.
std::vector<rpc::TableOp> CollectOps(
    const compiler::ApiSpec& api,
    Status (*populate)(const compiler::ApiSpec&, const controller::AddEntryFn&,
                       const controller::BaselineConfig&)) {
  std::vector<rpc::TableOp> ops;
  controller::AddEntryFn collect = [&ops](const std::string& table,
                                          const table::Entry& entry) {
    rpc::TableOp op;
    op.op = rpc::TableOpKind::kAdd;
    op.table = table;
    op.entry = entry;
    ops.push_back(std::move(op));
    return OkStatus();
  };
  controller::BaselineConfig config;
  EXPECT_TRUE(populate(api, collect, config).ok());
  return ops;
}

Status PopulateEcmpDefault(const compiler::ApiSpec& api,
                           const controller::AddEntryFn& add,
                           const controller::BaselineConfig& config) {
  return controller::PopulateEcmp(api, add, config);
}

net::Packet V4Packet(uint32_t dst_low, uint16_t sport) {
  controller::BaselineConfig config;
  return net::PacketBuilder()
      .Ethernet(net::MacAddr::FromUint64(config.router_mac_base),
                net::MacAddr::FromUint64(0x020000000001ull),
                net::kEtherTypeIpv4)
      .Ipv4(net::Ipv4Addr::FromString("192.168.0.1"),
            net::Ipv4Addr{0x0A000000 + dst_low}, net::kIpProtoUdp)
      .Udp(sport, 80)
      .Payload(32)
      .Build();
}

Result<std::vector<uint8_t>> RecvDatagram(const wire::Socket& sock,
                                          int timeout_ms) {
  std::vector<uint8_t> buf(64 * 1024);
  IPSA_ASSIGN_OR_RETURN(size_t n,
                        wire::RecvSome(sock.fd(), buf, timeout_ms));
  buf.resize(n);
  return buf;
}

class SwitchdTest : public ::testing::Test {
 protected:
  void StartDaemon(ArchKind arch = ArchKind::kIpsa,
                   uint32_t trace_every = 0) {
    SwitchdOptions options;
    options.arch = arch;
    options.udp_ports = kUdpPorts;
    options.trace_sample_every = trace_every;
    switchd_ = std::make_unique<Switchd>(options);
    ASSERT_TRUE(switchd_->Start().ok());
  }

  // One client UDP socket per daemon port; a zero-length datagram registers
  // each socket as its port's packet-out peer without injecting anything.
  void RegisterPeers() {
    for (uint32_t p = 0; p < kUdpPorts; ++p) {
      auto sock = wire::UdpBind("127.0.0.1", 0);
      ASSERT_TRUE(sock.ok());
      peers_.push_back(std::move(*sock));
      SendToPort(p, {});
    }
  }

  void SendToPort(uint32_t port, std::span<const uint8_t> bytes) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(switchd_->udp_port(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_GE(::sendto(peers_[port].fd(), bytes.data(), bytes.size(), 0,
                       reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
              0);
  }

  // Sends `packet` into device port 0 over UDP and asserts the daemon's
  // output datagrams are bit-identical to the reference device's TX.
  void AssertForwardsLikeReference(IpsaBackend& ref, uint32_t dst_low,
                                   uint16_t sport) {
    net::Packet pkt = V4Packet(dst_low, sport);
    std::vector<uint8_t> bytes(pkt.bytes().begin(), pkt.bytes().end());

    net::Packet ref_pkt = V4Packet(dst_low, sport);
    auto expected = InjectAndDrain(ref, std::move(ref_pkt), 0);
    ASSERT_TRUE(expected.ok());

    SendToPort(0, bytes);
    for (const TxPacket& want : *expected) {
      ASSERT_LT(want.port, kUdpPorts);
      auto got = RecvDatagram(peers_[want.port], 10000);
      ASSERT_TRUE(got.ok()) << "no packet-out on port " << want.port << ": "
                            << got.status().ToString();
      std::vector<uint8_t> want_bytes(want.packet.bytes().begin(),
                                      want.packet.bytes().end());
      EXPECT_EQ(*got, want_bytes)
          << "divergence on port " << want.port << " dst_low " << dst_low;
    }
    if (expected->empty()) {
      // Dropped in-process must mean dropped over UDP too.
      auto got = RecvDatagram(peers_[0], 100);
      EXPECT_FALSE(got.ok());
    }
  }

  std::unique_ptr<Switchd> switchd_;
  std::vector<wire::Socket> peers_;
};

// --- the acceptance-criteria test -------------------------------------------

TEST_F(SwitchdTest, LoopbackForwardingMatchesInProcessDevice) {
  StartDaemon(ArchKind::kIpsa);
  rpc::Client client(MakeClientOptions(switchd_->control_port()));

  // Install + populate entirely over the wire (batched).
  auto installed = client.Install(rpc::InstallKind::kBaseP4,
                                  controller::designs::BaseP4());
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  EXPECT_EQ(installed->epoch, 1u);
  auto api = client.FetchApi();
  ASSERT_TRUE(api.ok());
  std::vector<rpc::TableOp> ops =
      CollectOps(*api, &controller::PopulateBaseline);
  auto batch = client.ApplyBatch(ops);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->applied, ops.size());

  // Reference device: same install, same pre-packed entries.
  IpsaBackend ref;
  ASSERT_TRUE(
      ref.Install(rpc::InstallKind::kBaseP4, controller::designs::BaseP4())
          .ok());
  for (const rpc::TableOp& op : ops) {
    ASSERT_TRUE(ref.ApplyTableOp(op).ok());
  }

  RegisterPeers();
  for (uint32_t i = 0; i < 16; ++i) {
    AssertForwardsLikeReference(ref, i, static_cast<uint16_t>(4000 + i));
  }

  // Live reconfiguration: load the ECMP use case over the control channel
  // while the data plane keeps forwarding, then re-check equivalence.
  auto script = client.Install(rpc::InstallKind::kScript,
                               controller::designs::EcmpScript());
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto api2 = client.FetchApi();
  ASSERT_TRUE(api2.ok());
  std::vector<rpc::TableOp> ecmp_ops = CollectOps(*api2, &PopulateEcmpDefault);
  auto batch2 = client.ApplyBatch(ecmp_ops);
  ASSERT_TRUE(batch2.ok()) << batch2.status().ToString();

  ASSERT_TRUE(
      ref.Install(rpc::InstallKind::kScript, controller::designs::EcmpScript())
          .ok());
  for (const rpc::TableOp& op : ecmp_ops) {
    ASSERT_TRUE(ref.ApplyTableOp(op).ok());
  }

  for (uint32_t i = 0; i < 16; ++i) {
    AssertForwardsLikeReference(ref, i, static_cast<uint16_t>(5000 + i));
  }

  // Device-level counters went through the same path on both sides.
  auto stats = client.QueryStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->packets_in, 32u);
  EXPECT_GT(switchd_->counters().udp_rx, 0u);
  EXPECT_GT(switchd_->counters().udp_tx, 0u);
}

// A delete or modify whose entry the table's spec rejects fails over the
// wire with an error status and leaves the table as it was: a /33 "delete"
// of a /32 route must neither crash the daemon nor remove the route.
TEST_F(SwitchdTest, OverlongPrefixDeleteFailsAndKeepsTheRoute) {
  StartDaemon(ArchKind::kIpsa);
  rpc::Client client(MakeClientOptions(switchd_->control_port()));
  ASSERT_TRUE(client
                  .Install(rpc::InstallKind::kBaseP4,
                           controller::designs::BaseP4())
                  .ok());
  auto api = client.FetchApi();
  ASSERT_TRUE(api.ok());
  std::vector<rpc::TableOp> ops =
      CollectOps(*api, &controller::PopulateBaseline);
  ASSERT_TRUE(client.ApplyBatch(ops).ok());

  IpsaBackend ref;
  ASSERT_TRUE(
      ref.Install(rpc::InstallKind::kBaseP4, controller::designs::BaseP4())
          .ok());
  for (const rpc::TableOp& op : ops) {
    ASSERT_TRUE(ref.ApplyTableOp(op).ok());
  }

  // Destination 4 is past the host table, so its /32 decides the port (4)
  // over the covering /8 (port 0).
  controller::BaselineConfig config;
  constexpr uint32_t kDst = 4;
  ASSERT_NE(config.PortOfNexthop(config.NexthopOf(kDst)),
            config.PortOfNexthop(config.NexthopOf(0)));
  const rpc::TableOp* route = nullptr;
  for (const rpc::TableOp& op : ops) {
    if (op.table == "ipv4_lpm" && op.entry.prefix_len == 32 &&
        op.entry.key.ToUint64() == config.v4_dst_base + kDst) {
      route = &op;
    }
  }
  ASSERT_NE(route, nullptr);
  table::Entry overlong = route->entry;
  overlong.prefix_len = 33;
  EXPECT_EQ(client.DeleteEntry("ipv4_lpm", overlong).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.ModifyEntry("ipv4_lpm", overlong).code(),
            StatusCode::kInvalidArgument);

  auto stats = client.QueryStats();
  ASSERT_TRUE(stats.ok());
  uint64_t entries = 0;
  for (const auto& row : stats->tables) entries += row.entries;
  EXPECT_EQ(entries, ops.size());
  RegisterPeers();
  AssertForwardsLikeReference(ref, kDst, 4000);
}

// The pipelined bulk stream over loopback, with a duplicate key injected
// mid-stream: the duplicate must surface as one per-entry failure in its
// frame's ack (strict kAdd), while the stream keeps going, every other op
// lands, and the device state matches a reference populated per-op.
TEST_F(SwitchdTest, BulkStreamReportsPartialFailureWithoutAborting) {
  StartDaemon(ArchKind::kIpsa);
  rpc::Client client(MakeClientOptions(switchd_->control_port()));

  auto installed = client.Install(rpc::InstallKind::kBaseP4,
                                  controller::designs::BaseP4());
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  auto api = client.FetchApi();
  ASSERT_TRUE(api.ok());
  std::vector<rpc::TableOp> ops =
      CollectOps(*api, &controller::PopulateBaseline);
  ASSERT_GT(ops.size(), 8u);

  // A duplicate of the first op, planted mid-stream. With 4-op frames and a
  // 2-frame window it lands while later frames are already on the wire.
  const size_t dup_at = ops.size() / 2;
  ops.insert(ops.begin() + dup_at, ops.front());

  rpc::BulkOptions bulk;
  bulk.window = 2;
  bulk.ops_per_frame = 4;
  const uint64_t want_frames = (ops.size() + 3) / 4;
  uint64_t acks = 0;
  auto res = client.ApplyBulk(ops, bulk, [&](const rpc::BulkProgress& p) {
    acks = p.frames_acked;
    EXPECT_EQ(p.frames_total, want_frames);
  });
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(acks, want_frames);
  EXPECT_EQ(res->applied, ops.size() - 1);
  ASSERT_EQ(res->failures.size(), 1u);
  // The failure's index is rebased to the caller's op list, and its code
  // survives the wire round-trip.
  EXPECT_EQ(res->failures[0].index, dup_at);
  EXPECT_EQ(res->failures[0].code,
            static_cast<uint16_t>(StatusCode::kAlreadyExists));

  // The session survived the partial failure.
  auto epoch = client.QueryEpoch();
  ASSERT_TRUE(epoch.ok());

  // Forwarding equivalence against a per-op populated reference proves the
  // batched per-frame publication converged to the same table state.
  IpsaBackend ref;
  ASSERT_TRUE(
      ref.Install(rpc::InstallKind::kBaseP4, controller::designs::BaseP4())
          .ok());
  for (size_t k = 0; k < ops.size(); ++k) {
    if (k == dup_at) continue;
    ASSERT_TRUE(ref.ApplyTableOp(ops[k]).ok());
  }
  RegisterPeers();
  for (uint32_t i = 0; i < 8; ++i) {
    AssertForwardsLikeReference(ref, i, static_cast<uint16_t>(6000 + i));
  }
}

// A bulk frame before any design is installed fails at frame level (status
// prefix), which aborts the stream — distinct from per-op failures.
TEST_F(SwitchdTest, BulkStreamWithoutDesignFailsFrameLevel) {
  StartDaemon(ArchKind::kIpsa);
  rpc::Client client(MakeClientOptions(switchd_->control_port()));
  rpc::TableOp op;
  op.op = rpc::TableOpKind::kAdd;
  op.table = "nope";
  auto res = client.ApplyBulk({op});
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kFailedPrecondition);
}

// Batch sizes outside [kMinUdpBatch, kMaxUdpBatch] must fail Start()
// cleanly — never bind a socket with a nonsense burst configuration.
TEST(SwitchdOptionsValidation, RejectsBatchSizesOutsideBounds) {
  struct Case {
    uint32_t rx, tx;
  };
  const Case bad[] = {{0, 64}, {wire::kMaxUdpBatch + 1, 64},
                      {64, 0}, {64, wire::kMaxUdpBatch + 1}};
  for (const Case& c : bad) {
    SwitchdOptions options;
    options.udp_ports = 1;
    options.rx_batch = c.rx;
    options.tx_batch = c.tx;
    Switchd daemon(options);
    Status s = daemon.Start();
    EXPECT_FALSE(s.ok()) << "rx=" << c.rx << " tx=" << c.tx;
    EXPECT_FALSE(daemon.running());
  }
  // The boundary values themselves are valid configurations.
  SwitchdOptions options;
  options.udp_ports = 1;
  options.rx_batch = wire::kMinUdpBatch;
  options.tx_batch = wire::kMaxUdpBatch;
  Switchd daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  daemon.Stop();
}

// A flood larger than one recvmmsg burst: the until-EAGAIN drain plus the
// batched TX path must return every frame, bit-identical, in order. Also
// exercises the TX->RX packet-buffer recycling pool in steady state.
TEST_F(SwitchdTest, UdpBurstRoundTripReturnsEveryFrame) {
  StartDaemon(ArchKind::kIpsa);
  rpc::Client client(MakeClientOptions(switchd_->control_port()));
  ASSERT_TRUE(client
                  .Install(rpc::InstallKind::kBaseP4,
                           controller::designs::BaseP4())
                  .ok());
  auto api = client.FetchApi();
  ASSERT_TRUE(api.ok());
  std::vector<rpc::TableOp> ops =
      CollectOps(*api, &controller::PopulateBaseline);
  ASSERT_TRUE(client.ApplyBatch(ops).ok());

  // Reference output for the canonical frame.
  IpsaBackend ref;
  ASSERT_TRUE(
      ref.Install(rpc::InstallKind::kBaseP4, controller::designs::BaseP4())
          .ok());
  for (const rpc::TableOp& op : ops) {
    ASSERT_TRUE(ref.ApplyTableOp(op).ok());
  }
  net::Packet ref_pkt = V4Packet(4, 4000);
  auto expected = InjectAndDrain(ref, std::move(ref_pkt), 0);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), 1u);
  const uint32_t out_port = (*expected)[0].port;
  std::vector<uint8_t> want((*expected)[0].packet.bytes().begin(),
                            (*expected)[0].packet.bytes().end());

  RegisterPeers();
  net::Packet pkt = V4Packet(4, 4000);
  std::vector<uint8_t> bytes(pkt.bytes().begin(), pkt.bytes().end());
  // Larger than the default rx_batch (64), so the daemon needs several
  // recvmmsg calls — and at least two pump iterations — to drain it.
  constexpr uint32_t kBurst = 200;
  for (uint32_t i = 0; i < kBurst; ++i) {
    SendToPort(0, bytes);
  }
  for (uint32_t i = 0; i < kBurst; ++i) {
    auto got = RecvDatagram(peers_[out_port], 10000);
    ASSERT_TRUE(got.ok()) << "missing packet-out " << i << ": "
                          << got.status().ToString();
    ASSERT_EQ(*got, want) << "frame " << i << " diverged";
  }
  EXPECT_GE(switchd_->counters().udp_rx, static_cast<uint64_t>(kBurst));
  EXPECT_GE(switchd_->counters().udp_tx, static_cast<uint64_t>(kBurst));
}

// --- telemetry over the wire -------------------------------------------------

// One HTTP/1.0 scrape of the daemon's Prometheus endpoint.
Result<std::string> Scrape(uint16_t port, const std::string& path) {
  IPSA_ASSIGN_OR_RETURN(wire::Socket sock,
                        wire::TcpConnect("127.0.0.1", port, 5000));
  std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  IPSA_RETURN_IF_ERROR(wire::SendAll(
      sock.fd(),
      std::span(reinterpret_cast<const uint8_t*>(req.data()), req.size()),
      5000));
  std::string response;
  std::vector<uint8_t> buf(64 * 1024);
  for (;;) {
    auto n = wire::RecvSome(sock.fd(), buf, 5000);
    if (!n.ok()) return n.status();
    if (*n == 0) break;  // server closes after one response
    response.append(reinterpret_cast<const char*>(buf.data()), *n);
  }
  return response;
}

// The acceptance-criteria scrape test: telemetry + sampling enabled, a live
// in-situ update between two batches of traffic, forwarding bit-identical to
// an untelemetered reference device throughout, and every export surface
// (GetMetrics, GetTraces, the Prometheus endpoint) showing the epoch-tagged
// story.
TEST_F(SwitchdTest, TelemetryAcrossLiveUpdate) {
  StartDaemon(ArchKind::kIpsa, /*trace_every=*/1);
  rpc::Client client(MakeClientOptions(switchd_->control_port()));

  auto installed = client.Install(rpc::InstallKind::kBaseP4,
                                  controller::designs::BaseP4());
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  auto api = client.FetchApi();
  ASSERT_TRUE(api.ok());
  std::vector<rpc::TableOp> ops =
      CollectOps(*api, &controller::PopulateBaseline);
  ASSERT_TRUE(client.ApplyBatch(ops).ok());

  // Reference device with telemetry off — proves collection does not
  // perturb forwarding.
  IpsaBackend ref;
  ASSERT_TRUE(
      ref.Install(rpc::InstallKind::kBaseP4, controller::designs::BaseP4())
          .ok());
  for (const rpc::TableOp& op : ops) ASSERT_TRUE(ref.ApplyTableOp(op).ok());

  RegisterPeers();
  for (uint32_t i = 0; i < 8; ++i) {
    AssertForwardsLikeReference(ref, i, static_cast<uint16_t>(6000 + i));
  }

  auto before = client.QueryMetrics();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->arch, "ipsa");
  EXPECT_TRUE(before->snapshot.enabled);
  EXPECT_EQ(before->snapshot.device.packets_in, 8u);
  EXPECT_FALSE(before->snapshot.ports.empty());
  EXPECT_GT(before->snapshot.ports[0].metrics.cycles.count, 0u);
  EXPECT_FALSE(before->snapshot.stages.empty());
  uint64_t table_hits = 0;
  for (const telemetry::TableRow& row : before->snapshot.tables) {
    table_hits += row.hits;
  }
  EXPECT_GT(table_hits, 0u);

  // Live in-situ update over the control channel.
  auto script = client.Install(rpc::InstallKind::kScript,
                               controller::designs::EcmpScript());
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto api2 = client.FetchApi();
  ASSERT_TRUE(api2.ok());
  std::vector<rpc::TableOp> ecmp_ops = CollectOps(*api2, &PopulateEcmpDefault);
  ASSERT_TRUE(client.ApplyBatch(ecmp_ops).ok());

  ASSERT_TRUE(
      ref.Install(rpc::InstallKind::kScript, controller::designs::EcmpScript())
          .ok());
  for (const rpc::TableOp& op : ecmp_ops) {
    ASSERT_TRUE(ref.ApplyTableOp(op).ok());
  }

  for (uint32_t i = 0; i < 8; ++i) {
    AssertForwardsLikeReference(ref, i, static_cast<uint16_t>(7000 + i));
  }

  // The snapshot after the update tells the reconfiguration story: the
  // config epoch advanced and the update-window histogram recorded it.
  auto after = client.QueryMetrics();
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->snapshot.config_epoch, before->snapshot.config_epoch);
  EXPECT_GT(after->snapshot.updates, before->snapshot.updates);
  EXPECT_GT(after->snapshot.update_window_us.count,
            before->snapshot.update_window_us.count);
  // Fine-grained CCM writes can bump the epoch after the last template
  // window, so the tag trails the live epoch but postdates the old one.
  EXPECT_LE(after->snapshot.last_update_epoch, after->snapshot.config_epoch);
  EXPECT_GT(after->snapshot.last_update_epoch, before->snapshot.config_epoch);
  EXPECT_EQ(after->snapshot.device.packets_in, 16u);
  EXPECT_GT(after->snapshot.seq, before->snapshot.seq);

  // Sampled traces: every packet was eligible (1-in-1), records carry the
  // epoch they executed under and real per-stage steps.
  auto traces = client.QueryTraces();
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  ASSERT_FALSE(traces->traces.empty());
  uint64_t last_seq = 0;
  for (const telemetry::TraceRecord& rec : traces->traces) {
    EXPECT_GT(rec.seq, last_seq) << "trace seq must be increasing";
    last_seq = rec.seq;
    EXPECT_LE(rec.config_epoch, after->snapshot.config_epoch);
    EXPECT_FALSE(rec.trace.steps.empty());
  }
  // Some traces predate the update, some follow it.
  EXPECT_LT(traces->traces.front().config_epoch,
            traces->traces.back().config_epoch);

  // Prometheus scrape straight off the metrics port.
  auto scrape = Scrape(switchd_->metrics_port(), "/metrics");
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  EXPECT_NE(scrape->find("200 OK"), std::string::npos);
  EXPECT_NE(scrape->find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(scrape->find("ipsa_table_hits_total{arch=\"ipsa\",table="),
            std::string::npos);
  EXPECT_NE(scrape->find("ipsa_update_window_us_bucket"), std::string::npos);
  EXPECT_NE(scrape->find("ipsa_config_epoch{arch=\"ipsa\"} " +
                         std::to_string(after->snapshot.config_epoch)),
            std::string::npos);
  EXPECT_NE(scrape->find("ipsa_device_packets_in_total{arch=\"ipsa\"} 16"),
            std::string::npos);
  EXPECT_GT(switchd_->counters().metrics_scrapes, 0u);

  // Unknown paths 404; the daemon keeps serving.
  auto missing = Scrape(switchd_->metrics_port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(missing->find("404"), std::string::npos);

  // ResetMetrics clears the collector (ports, windows, traces) but leaves
  // the device's own lifetime counters alone.
  ASSERT_TRUE(client.ResetMetrics().ok());
  auto reset = client.QueryMetrics();
  ASSERT_TRUE(reset.ok());
  EXPECT_TRUE(reset->snapshot.ports.empty());
  EXPECT_EQ(reset->snapshot.updates, 0u);
  EXPECT_EQ(reset->snapshot.traces_pending, 0u);
  EXPECT_EQ(reset->snapshot.device.packets_in, 16u);
}

// Telemetry off: the RPCs still answer (empty snapshot, no traces), so
// dashboards fail soft instead of erroring.
TEST_F(SwitchdTest, MetricsWithTelemetryDisabled) {
  SwitchdOptions options;
  options.udp_ports = kUdpPorts;
  options.telemetry = false;
  switchd_ = std::make_unique<Switchd>(options);
  ASSERT_TRUE(switchd_->Start().ok());

  rpc::Client client(MakeClientOptions(switchd_->control_port()));
  auto metrics = client.QueryMetrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_FALSE(metrics->snapshot.enabled);
  EXPECT_TRUE(metrics->snapshot.ports.empty());
  auto traces = client.QueryTraces();
  ASSERT_TRUE(traces.ok());
  EXPECT_TRUE(traces->traces.empty());

  auto scrape = Scrape(switchd_->metrics_port(), "/metrics");
  ASSERT_TRUE(scrape.ok());
  EXPECT_NE(scrape->find("ipsa_telemetry_enabled{arch=\"ipsa\"} 0"),
            std::string::npos);
}

// --- control-channel robustness ----------------------------------------------

TEST_F(SwitchdTest, GarbageFramesKillOnlyTheGuiltySession) {
  StartDaemon();
  auto sock = wire::TcpConnect("127.0.0.1", switchd_->control_port(), 2000);
  ASSERT_TRUE(sock.ok());
  std::vector<uint8_t> garbage(256, 0x5A);
  ASSERT_TRUE(wire::SendAll(sock->fd(), garbage, 2000).ok());
  // The daemon drops the corrupt session: recv sees EOF, not a hang.
  std::vector<uint8_t> buf(64);
  auto n = wire::RecvSome(sock->fd(), buf, 5000);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);

  // The daemon itself is fine — a fresh client works.
  rpc::Client client(MakeClientOptions(switchd_->control_port()));
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.server_info().arch, "ipsa");
  EXPECT_GE(switchd_->counters().framing_errors, 1u);
}

TEST_F(SwitchdTest, MidFrameDisconnectIsHarmless) {
  StartDaemon();
  {
    auto sock = wire::TcpConnect("127.0.0.1", switchd_->control_port(), 2000);
    ASSERT_TRUE(sock.ok());
    // First half of a valid frame, then the socket vanishes.
    wire::Frame f{static_cast<uint16_t>(rpc::MsgType::kHelloReq), 1,
                  std::vector<uint8_t>(64, 0)};
    std::vector<uint8_t> bytes = wire::EncodeFrame(f);
    bytes.resize(bytes.size() / 2);
    ASSERT_TRUE(wire::SendAll(sock->fd(), bytes, 2000).ok());
  }  // ~Socket closes mid-frame

  rpc::Client client(MakeClientOptions(switchd_->control_port()));
  ASSERT_TRUE(client.Connect().ok());
  auto epoch = client.QueryEpoch();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch->arch, "ipsa");
}

TEST_F(SwitchdTest, OversizedFrameDropsSessionNotDaemon) {
  StartDaemon();
  auto sock = wire::TcpConnect("127.0.0.1", switchd_->control_port(), 2000);
  ASSERT_TRUE(sock.ok());
  // Header claiming a payload over the 8 MiB cap.
  wire::Writer w;
  w.U32(wire::kFrameMagic);
  w.U16(1);
  w.U16(0);
  w.U32(1);
  w.U32(wire::kMaxPayloadBytes + 1);
  ASSERT_TRUE(wire::SendAll(sock->fd(), w.Take(), 2000).ok());
  std::vector<uint8_t> buf(64);
  auto n = wire::RecvSome(sock->fd(), buf, 5000);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);  // dropped

  rpc::Client client(MakeClientOptions(switchd_->control_port()));
  EXPECT_TRUE(client.Connect().ok());
}

TEST(ClientTimeout, SilentServerFailsTheCallWithDeadlineExceeded) {
  // A listener that accepts (via the kernel backlog) but never answers.
  auto listener = wire::TcpListen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  auto port = wire::LocalPort(*listener);
  ASSERT_TRUE(port.ok());

  rpc::ClientOptions options = MakeClientOptions(*port);
  options.call_timeout_ms = 200;
  options.max_connect_attempts = 1;
  rpc::Client client(options);
  Status s = client.Connect();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
}

TEST(ClientReconnect, DeadPortFailsFastWithUnavailable) {
  // Grab an ephemeral port, then close it so nothing listens there.
  uint16_t dead_port = 0;
  {
    auto listener = wire::TcpListen("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    dead_port = *wire::LocalPort(*listener);
  }
  rpc::ClientOptions options = MakeClientOptions(dead_port);
  options.max_connect_attempts = 2;
  options.backoff_initial_ms = 1;
  rpc::Client client(options);
  Status s = client.Connect();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
}

TEST_F(SwitchdTest, SeveredConnectionReconnectsTransparently) {
  StartDaemon();
  rpc::Client client(MakeClientOptions(switchd_->control_port()));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.QueryEpoch().ok());

  client.SeverConnectionForTest();
  // The next call redials and re-handshakes without the caller noticing.
  auto epoch = client.QueryEpoch();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(epoch->arch, "ipsa");
  EXPECT_GE(switchd_->counters().control_accepts, 2u);
}

// --- pisa arch behind the same daemon ---------------------------------------

TEST_F(SwitchdTest, PisaArchServesInstallAndTables) {
  StartDaemon(ArchKind::kPisa);
  rpc::Client client(MakeClientOptions(switchd_->control_port()));
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.server_info().arch, "pisa");

  auto installed = client.Install(rpc::InstallKind::kBaseP4,
                                  controller::designs::BaseP4());
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();

  // The monolithic baseline has no incremental surface: a script install
  // must fail the call but keep the session healthy.
  auto script = client.Install(rpc::InstallKind::kScript,
                               controller::designs::EcmpScript());
  EXPECT_FALSE(script.ok());
  EXPECT_EQ(script.status().code(), StatusCode::kUnimplemented);

  auto api = client.FetchApi();
  ASSERT_TRUE(api.ok());
  std::vector<rpc::TableOp> ops =
      CollectOps(*api, &controller::PopulateBaseline);
  auto batch = client.ApplyBatch(ops);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->applied, ops.size());

  auto stats = client.QueryStats();
  ASSERT_TRUE(stats.ok());
  uint64_t entries = 0;
  for (const auto& row : stats->tables) entries += row.entries;
  EXPECT_EQ(entries, ops.size());
}

TEST_F(SwitchdTest, DrainAndEpochRpcs) {
  StartDaemon();
  rpc::Client client(MakeClientOptions(switchd_->control_port()));
  auto epoch0 = client.QueryEpoch();
  ASSERT_TRUE(epoch0.ok());
  EXPECT_EQ(epoch0->epoch, 0u);
  EXPECT_FALSE(epoch0->has_design);

  ASSERT_TRUE(client
                  .Install(rpc::InstallKind::kBaseP4,
                           controller::designs::BaseP4())
                  .ok());
  auto epoch1 = client.QueryEpoch();
  ASSERT_TRUE(epoch1.ok());
  EXPECT_EQ(epoch1->epoch, 1u);
  EXPECT_TRUE(epoch1->has_design);

  // Nothing queued: drain is a no-op quiesce.
  auto drained = client.Drain(2);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->processed, 0u);
}

// --- UDP peer registration lifecycle -----------------------------------------

void SendVia(const wire::Socket& sock, uint16_t daemon_port,
             std::span<const uint8_t> bytes) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(daemon_port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_GE(::sendto(sock.fd(), bytes.data(), bytes.size(), 0,
                     reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
}

// A fresh zero-length registration datagram atomically re-points a port's
// packet-out peer — the restarted-consumer story: the old socket stops
// receiving, the new one gets everything from the next packet on.
TEST_F(SwitchdTest, UdpReRegistrationRepointsPacketOut) {
  StartDaemon(ArchKind::kIpsa);
  rpc::Client client(MakeClientOptions(switchd_->control_port()));
  ASSERT_TRUE(client
                  .Install(rpc::InstallKind::kBaseP4,
                           controller::designs::BaseP4())
                  .ok());
  auto api = client.FetchApi();
  ASSERT_TRUE(api.ok());
  std::vector<rpc::TableOp> ops =
      CollectOps(*api, &controller::PopulateBaseline);
  ASSERT_TRUE(client.ApplyBatch(ops).ok());

  // Reference run pins down the egress port and bytes.
  IpsaBackend ref;
  ASSERT_TRUE(
      ref.Install(rpc::InstallKind::kBaseP4, controller::designs::BaseP4())
          .ok());
  for (const rpc::TableOp& op : ops) {
    ASSERT_TRUE(ref.ApplyTableOp(op).ok());
  }
  net::Packet ref_pkt = V4Packet(4, 4000);
  auto expected = InjectAndDrain(ref, std::move(ref_pkt), 0);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), 1u);
  const uint32_t out_port = (*expected)[0].port;

  RegisterPeers();
  net::Packet pkt = V4Packet(4, 4000);
  std::vector<uint8_t> bytes(pkt.bytes().begin(), pkt.bytes().end());

  SendToPort(0, bytes);
  ASSERT_TRUE(RecvDatagram(peers_[out_port], 10000).ok());

  // The consumer restarts on a new socket and re-registers.
  auto restarted = wire::UdpBind("127.0.0.1", 0);
  ASSERT_TRUE(restarted.ok());
  SendVia(*restarted, switchd_->udp_port(out_port), {});

  SendToPort(0, bytes);
  auto got_new = RecvDatagram(*restarted, 10000);
  ASSERT_TRUE(got_new.ok()) << got_new.status().ToString();
  EXPECT_EQ(got_new->size(), bytes.size());
  // The replaced socket stays silent.
  EXPECT_FALSE(RecvDatagram(peers_[out_port], 100).ok());
}

// A plain data datagram from a different source must NOT steal the peer
// mapping mid-stream — only the explicit zero-length registration does.
TEST_F(SwitchdTest, UdpDataSourceDoesNotHijackRegisteredPeer) {
  StartDaemon(ArchKind::kIpsa);
  rpc::Client client(MakeClientOptions(switchd_->control_port()));
  ASSERT_TRUE(client
                  .Install(rpc::InstallKind::kBaseP4,
                           controller::designs::BaseP4())
                  .ok());
  auto api = client.FetchApi();
  ASSERT_TRUE(api.ok());
  std::vector<rpc::TableOp> ops =
      CollectOps(*api, &controller::PopulateBaseline);
  ASSERT_TRUE(client.ApplyBatch(ops).ok());

  IpsaBackend ref;
  ASSERT_TRUE(
      ref.Install(rpc::InstallKind::kBaseP4, controller::designs::BaseP4())
          .ok());
  for (const rpc::TableOp& op : ops) {
    ASSERT_TRUE(ref.ApplyTableOp(op).ok());
  }
  net::Packet ref_pkt = V4Packet(4, 4000);
  auto expected = InjectAndDrain(ref, std::move(ref_pkt), 0);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), 1u);
  const uint32_t out_port = (*expected)[0].port;

  RegisterPeers();
  net::Packet pkt = V4Packet(4, 4000);
  std::vector<uint8_t> bytes(pkt.bytes().begin(), pkt.bytes().end());

  // An interloper injects data into the egress port's socket. The packet is
  // processed like any other RX, but the registered peer must survive.
  auto interloper = wire::UdpBind("127.0.0.1", 0);
  ASSERT_TRUE(interloper.ok());
  SendVia(*interloper, switchd_->udp_port(out_port), bytes);
  // (That frame ingresses on out_port; wherever it egresses, the peer map
  // for out_port itself must still point at the original socket.)

  SendToPort(0, bytes);
  auto got = RecvDatagram(peers_[out_port], 10000);
  ASSERT_TRUE(got.ok())
      << "registered peer lost its packet-out after a data datagram "
         "from another source: "
      << got.status().ToString();
  EXPECT_EQ(got->size(), bytes.size());
}

// --- ResetMetrics racing live traffic ---------------------------------------
//
// A reset that lands while packets sit undrained in RX must never produce a
// torn snapshot: every subsequent snapshot's port rows stay internally
// conserved (in == out + dropped, histogram count == in) and the totals
// count exactly the packets processed since the reset — queued-but-undrained
// packets are counted after it, never half-counted across it. The snapshot
// seq keeps climbing throughout (subscribers must not mistake a reset for a
// restart).

void AssertConservedSnapshot(const telemetry::MetricsSnapshot& snap) {
  for (const auto& row : snap.ports) {
    EXPECT_EQ(row.metrics.packets_in,
              row.metrics.packets_out + row.metrics.packets_dropped)
        << "torn port row on port " << row.port;
    EXPECT_EQ(row.metrics.cycles.count, row.metrics.packets_in)
        << "latency histogram disagrees with packets_in on port " << row.port;
    EXPECT_LE(row.metrics.packets_marked, row.metrics.packets_in);
  }
}

void RunResetRace(DeviceBackend& dev, uint32_t workers) {
  ASSERT_TRUE(dev.Install(rpc::InstallKind::kBaseP4,
                          controller::designs::BaseP4())
                  .ok());
  auto api = dev.Api();
  ASSERT_TRUE(api.ok());
  controller::AddEntryFn add = [&dev](const std::string& table,
                                      const table::Entry& entry) {
    return dev.ApplyTableOp(rpc::TableOp{
        .op = rpc::TableOpKind::kAdd, .table = table, .entry = entry});
  };
  ASSERT_TRUE(controller::PopulateBaseline(*api, add, {}).ok());
  telemetry::TelemetryConfig config;
  config.enabled = true;
  dev.ConfigureTelemetry(config);

  uint64_t last_seq = 0;
  uint64_t since_reset = 0;
  constexpr uint32_t kChunks = 5, kPerChunk = 8;
  for (uint32_t chunk = 0; chunk < kChunks; ++chunk) {
    for (uint32_t i = 0; i < kPerChunk; ++i) {
      net::Packet pkt =
          V4Packet(1 + (i % 4), static_cast<uint16_t>(1000 + chunk * 16 + i));
      ASSERT_TRUE(dev.ports().port(i % 2).rx().Push(std::move(pkt)));
    }
    if (chunk == 2) {
      ASSERT_TRUE(dev.ResetMetrics().ok());
      since_reset = 0;
    }
    auto drained = dev.RunToCompletion(workers);
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    since_reset += kPerChunk;

    auto resp = dev.QueryMetrics();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    const telemetry::MetricsSnapshot& snap = resp->snapshot;
    EXPECT_GT(snap.seq, last_seq) << "seq must survive ResetMetrics";
    last_seq = snap.seq;
    AssertConservedSnapshot(snap);
    uint64_t total_in = 0;
    for (const auto& row : snap.ports) total_in += row.metrics.packets_in;
    EXPECT_EQ(total_in, since_reset)
        << "chunk " << chunk << ": counters must cover exactly the packets "
        << "processed since the reset";
  }
}

TEST(ResetMetricsRace, CountersConservedOnIpbm) {
  IpsaBackend dev;
  RunResetRace(dev, 1);
}

TEST(ResetMetricsRace, CountersConservedOnIpbmParallelDrain) {
  IpsaBackend dev;
  RunResetRace(dev, 2);
}

TEST(ResetMetricsRace, CountersConservedOnPbm) {
  PisaBackend dev;
  RunResetRace(dev, 1);
}

TEST(ResetMetricsRace, CountersConservedOnPbmParallelDrain) {
  PisaBackend dev;
  RunResetRace(dev, 2);
}

}  // namespace
}  // namespace ipsa::daemon
