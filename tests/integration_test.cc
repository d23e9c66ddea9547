// End-to-end tests over the complete toolchain and both devices:
// P4 source -> p4lite -> rp4fc -> rp4bc -> ipbm (the rP4 flow), and
// P4 source -> p4lite -> PISA backend -> pbm (the baseline flow),
// including all three runtime-update use cases of §4.2.
#include <gtest/gtest.h>

#include "controller/baseline.h"
#include "controller/controller.h"
#include "controller/designs.h"
#include "net/checksum.h"
#include "util/bitops.h"
#include "net/packet_builder.h"
#include "net/workload.h"

namespace ipsa {
namespace {

using controller::BaselineConfig;
using controller::designs::ResolveSnippet;

constexpr uint64_t kRouterMac = 0x021111110000ull;

net::Packet MakeV4Packet(uint32_t dst, uint8_t ttl = 64) {
  return net::PacketBuilder()
      .Ethernet(net::MacAddr::FromUint64(kRouterMac),
                net::MacAddr::FromUint64(0x020000000001ull),
                net::kEtherTypeIpv4)
      .Ipv4(net::Ipv4Addr::FromString("192.168.0.1"), net::Ipv4Addr{dst},
            net::kIpProtoUdp, ttl)
      .Udp(1234, 80)
      .Payload(32)
      .Build();
}

net::Packet MakeV6Packet(uint16_t low_group) {
  return net::PacketBuilder()
      .Ethernet(net::MacAddr::FromUint64(kRouterMac),
                net::MacAddr::FromUint64(0x020000000001ull),
                net::kEtherTypeIpv6)
      .Ipv6(net::Ipv6Addr::FromGroups({0x2001, 0xdb8, 0, 0, 0, 0, 0, 1}),
            net::Ipv6Addr::FromGroups(
                {0x2001, 0xdb8, 0xff, 0, 0, 0, 0, low_group}),
            net::kIpProtoUdp)
      .Udp(1234, 80)
      .Payload(32)
      .Build();
}

class Rp4FlowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<ipbm::IpbmSwitch>(ipbm::IpbmOptions{});
    controller_ = std::make_unique<controller::Rp4FlowController>(
        *device_, compiler::Rp4bcOptions{});
    auto timing =
        controller_->LoadBaseFromP4(controller::designs::BaseP4());
    ASSERT_TRUE(timing.ok()) << timing.status().ToString();
    auto add = [this](const std::string& table, const table::Entry& e) {
      return controller_->AddEntry(table, e);
    };
    ASSERT_TRUE(
        controller::PopulateBaseline(controller_->api(), add, config_).ok());
  }

  Result<telemetry::ProcessResult> Send(net::Packet& packet,
                                        uint32_t port = 0) {
    return device_->Process(packet, port);
  }

  BaselineConfig config_;
  std::unique_ptr<ipbm::IpbmSwitch> device_;
  std::unique_ptr<controller::Rp4FlowController> controller_;
};

TEST_F(Rp4FlowTest, BaseDesignRoutesIpv4) {
  uint32_t dst = config_.v4_dst_base + 7;
  net::Packet p = MakeV4Packet(dst);
  auto result = Send(p);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->dropped);
  uint32_t nh = config_.NexthopOf(7);
  EXPECT_EQ(result->egress_port, config_.PortOfNexthop(nh));
  // Rewrites: new DMAC from the nexthop table, new SMAC, TTL decremented.
  net::EthernetView eth(p.bytes());
  EXPECT_EQ(eth.dst().ToUint64(), config_.nh_dmac_base + nh);
  EXPECT_EQ(eth.src().ToUint64(), config_.smac);
  net::Ipv4View ip(p.bytes().subspan(net::EthernetView::kSize));
  EXPECT_EQ(ip.ttl(), 63);
  // The rewrite action recomputed the IPv4 header checksum after the TTL
  // decrement; a valid header sums to zero.
  EXPECT_EQ(net::InternetChecksum(
                p.bytes().subspan(net::EthernetView::kSize, 20)),
            0);
}

TEST_F(Rp4FlowTest, BaseDesignRoutesIpv6) {
  net::Packet p = MakeV6Packet(5);
  auto result = Send(p);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->dropped);
  uint32_t nh = config_.NexthopOf(4);  // low_group 5 -> index 4
  EXPECT_EQ(result->egress_port, config_.PortOfNexthop(nh));
  net::Ipv6View ip(p.bytes().subspan(net::EthernetView::kSize));
  EXPECT_EQ(ip.hop_limit(), 63);
}

TEST_F(Rp4FlowTest, UnknownUnicastIsDroppedViaMiss) {
  // Non-router DMAC and no dmac entry: packet falls through with the
  // default egress_spec 0 (port 0) — no crash, no rewrite.
  net::Packet p = net::PacketBuilder()
                      .Ethernet(net::MacAddr::FromUint64(0x02FFFFFFFFFFull),
                                net::MacAddr::FromUint64(0x020000000001ull),
                                net::kEtherTypeIpv4)
                      .Ipv4(net::Ipv4Addr::FromString("192.168.0.1"),
                            net::Ipv4Addr::FromString("10.0.0.1"),
                            net::kIpProtoUdp)
                      .Udp(1, 2)
                      .Build();
  auto result = Send(p);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  net::Ipv4View ip(p.bytes().subspan(net::EthernetView::kSize));
  EXPECT_EQ(ip.ttl(), 64);  // L2 path: no rewrite
}

TEST_F(Rp4FlowTest, EcmpInsertedAtRuntime) {
  // C1: insert ECMP after the FIB; it replaces the nexthop stage (H).
  auto timing = controller_->ApplyScript(controller::designs::EcmpScript(),
                                         ResolveSnippet);
  ASSERT_TRUE(timing.ok()) << timing.status().ToString();
  EXPECT_EQ(device_->TspOfStage("nexthop"), -1);
  EXPECT_GE(device_->TspOfStage("ecmp"), 0);

  auto add = [this](const std::string& table, const table::Entry& e) {
    return controller_->AddEntry(table, e);
  };
  ASSERT_TRUE(controller::PopulateEcmp(controller_->api(), add, config_).ok());

  // Traffic still forwards; the bucket choice is flow-stable.
  uint32_t first_port = 0;
  for (int i = 0; i < 5; ++i) {
    net::Packet p = MakeV4Packet(config_.v4_dst_base + 9);
    auto result = Send(p);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->dropped);
    net::EthernetView eth(p.bytes());
    // DMAC now comes from an ECMP bucket (one of the valid nexthop DMACs).
    uint64_t dmac = eth.dst().ToUint64();
    EXPECT_GE(dmac, config_.nh_dmac_base + 100);
    EXPECT_LT(dmac, config_.nh_dmac_base + 100 + config_.nexthop_count);
    if (i == 0) {
      first_port = result->egress_port;
    } else {
      EXPECT_EQ(result->egress_port, first_port) << "ECMP must be flow-stable";
    }
  }

  // Different flows spread over more than one member.
  std::set<uint32_t> ports;
  for (uint32_t k = 0; k < 32; ++k) {
    net::Packet p = MakeV4Packet(config_.v4_dst_base + k);
    auto result = Send(p);
    ASSERT_TRUE(result.ok());
    ports.insert(result->egress_port);
  }
  EXPECT_GT(ports.size(), 1u);
}

TEST_F(Rp4FlowTest, EcmpRemovalRestoresNothingButUnloadsCleanly) {
  ASSERT_TRUE(controller_
                  ->ApplyScript(controller::designs::EcmpScript(),
                                ResolveSnippet)
                  .ok());
  uint32_t used_before = device_->pool().UsedBlocks(mem::BlockKind::kSram);
  auto timing = controller_->ApplyScript(
      controller::designs::EcmpRemoveScript(), ResolveSnippet);
  ASSERT_TRUE(timing.ok()) << timing.status().ToString();
  EXPECT_EQ(device_->TspOfStage("ecmp"), -1);
  // ECMP's tables were recycled back to the pool (§2.4).
  EXPECT_LT(device_->pool().UsedBlocks(mem::BlockKind::kSram), used_before);
}

TEST_F(Rp4FlowTest, Srv6InsertedAtRuntime) {
  // C2: new protocol header (SRH) linked into the parse graph at runtime.
  auto timing = controller_->ApplyScript(controller::designs::Srv6Script(),
                                         ResolveSnippet);
  ASSERT_TRUE(timing.ok()) << timing.status().ToString();
  ASSERT_GE(device_->TspOfStage("srv6"), 0);
  auto add = [this](const std::string& table, const table::Entry& e) {
    return controller_->AddEntry(table, e);
  };
  ASSERT_TRUE(controller::PopulateSrv6(controller_->api(), add, config_).ok());

  // An SR packet destined to local SID #2, segment list [final, sid2].
  net::Ipv6Addr sid2 = controller::Srv6Sid(2);
  net::Ipv6Addr final_dst =
      net::Ipv6Addr::FromGroups({0x2001, 0xdb8, 0xff, 0, 0, 0, 0, 3});
  net::WorkloadConfig wcfg;
  net::Workload workload(wcfg);
  net::Packet p = workload.Srv6Packet(sid2, {final_dst, sid2},
                                      /*segments_left=*/1);
  auto result = Send(p);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->dropped);

  // SRH End behaviour: SL 1 -> 0, IPv6 dst rewritten to the next segment.
  net::Ipv6View ip(p.bytes().subspan(net::EthernetView::kSize));
  EXPECT_EQ(ip.dst(), final_dst);
  net::SrhView srh(p.bytes().subspan(net::EthernetView::kSize +
                                     net::Ipv6View::kSize));
  EXPECT_EQ(srh.segments_left(), 0);
}

TEST_F(Rp4FlowTest, Srv6TransitForwardsOnOuterHeader) {
  ASSERT_TRUE(controller_
                  ->ApplyScript(controller::designs::Srv6Script(),
                                ResolveSnippet)
                  .ok());
  auto add = [this](const std::string& table, const table::Entry& e) {
    return controller_->AddEntry(table, e);
  };
  ASSERT_TRUE(controller::PopulateSrv6(controller_->api(), add, config_).ok());
  // Destination is in 2001:db8:ff::/48 but is NOT a local SID: transit
  // processing sets the nexthop from end_transit.
  net::Packet p = MakeV6Packet(9);
  auto result = Send(p);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->dropped);
}

TEST_F(Rp4FlowTest, FlowProbeCountsAndMarks) {
  // C3: probe a flow; packets beyond the threshold get marked.
  auto timing = controller_->ApplyScript(controller::designs::ProbeScript(),
                                         ResolveSnippet);
  ASSERT_TRUE(timing.ok()) << timing.status().ToString();

  const uint32_t kThreshold = 3;
  controller::EntryBuilder builder(controller_->api());
  uint32_t src = net::Ipv4Addr::FromString("192.168.0.1").value;
  uint32_t dst = config_.v4_dst_base + 7;
  auto entry = builder.Build(
      "flow_probe", "probe_count",
      {controller::KeyValue(controller::Ipv4Bits(src)),
       controller::KeyValue(controller::Ipv4Bits(dst))},
      {controller::Bits(16, 0), controller::Bits(32, kThreshold)});
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  ASSERT_TRUE(controller_->AddEntry("flow_probe", *entry).ok());

  for (uint32_t i = 1; i <= 6; ++i) {
    net::Packet p = MakeV4Packet(dst);
    auto result = Send(p);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->dropped);
    if (i <= kThreshold) {
      EXPECT_FALSE(result->marked) << "packet " << i;
    } else {
      EXPECT_TRUE(result->marked) << "packet " << i;
    }
  }
  // Counter visible through the register file.
  auto count = device_->registers().Read("probe_cnt", 0);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 6u);

  // Unprobed flows are never marked.
  net::Packet other = MakeV4Packet(config_.v4_dst_base + 8);
  auto result = Send(other);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->marked);
}

TEST_F(Rp4FlowTest, InPlaceFunctionUpdatePreservesState) {
  // Load the probe, accumulate per-flow state, then UPDATE the function
  // in place (probe v2 drops instead of marking). The paper's cheapest
  // update path: no layout change, no table churn, counters preserved.
  ASSERT_TRUE(controller_
                  ->ApplyScript(controller::designs::ProbeScript(),
                                ResolveSnippet)
                  .ok());
  const uint32_t kThreshold = 3;
  controller::EntryBuilder builder(controller_->api());
  uint32_t src = net::Ipv4Addr::FromString("192.168.0.1").value;
  uint32_t dst = config_.v4_dst_base + 7;
  auto entry = builder.Build(
      "flow_probe", "probe_count",
      {controller::KeyValue(controller::Ipv4Bits(src)),
       controller::KeyValue(controller::Ipv4Bits(dst))},
      {controller::Bits(16, 0), controller::Bits(32, kThreshold)});
  ASSERT_TRUE(entry.ok());
  ASSERT_TRUE(controller_->AddEntry("flow_probe", *entry).ok());

  for (int i = 0; i < 4; ++i) {
    net::Packet p = MakeV4Packet(dst);
    auto r = Send(p);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->dropped);  // v1 marks, never drops
  }
  ASSERT_EQ(*device_->registers().Read("probe_cnt", 0), 4u);
  int tsp_before = device_->TspOfStage("flow_probe");
  uint64_t drains_before = device_->pipeline().drain_events();

  auto timing = controller_->ApplyScript(
      controller::designs::ProbeUpdateScript(), ResolveSnippet);
  ASSERT_TRUE(timing.ok()) << timing.status().ToString();

  // Same TSP, one drain for the single template rewrite, counter intact.
  EXPECT_EQ(device_->TspOfStage("flow_probe"), tsp_before);
  EXPECT_EQ(device_->pipeline().drain_events(), drains_before + 1);
  EXPECT_EQ(*device_->registers().Read("probe_cnt", 0), 4u);

  // v2 semantics take over immediately: beyond-threshold packets now drop.
  net::Packet p = MakeV4Packet(dst);
  auto r = Send(p);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->dropped);
  EXPECT_EQ(*device_->registers().Read("probe_cnt", 0), 5u);
  // Unprobed flows are unaffected.
  net::Packet other = MakeV4Packet(config_.v4_dst_base + 8);
  auto r2 = Send(other);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->dropped);
}

TEST_F(Rp4FlowTest, TelemetryEncapsulatesMatchingFlows) {
  // C4 extension: load INT-lite telemetry at runtime, filter on a /24.
  auto timing = controller_->ApplyScript(
      controller::designs::TelemetryScript(), ResolveSnippet);
  ASSERT_TRUE(timing.ok()) << timing.status().ToString();
  controller::EntryBuilder builder(controller_->api());
  auto entry = builder.Build(
      "tlm_filter", "tlm_push",
      {controller::KeyValue(controller::Ipv4Bits(config_.v4_dst_base))}, {},
      /*prefix_len=*/24);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  ASSERT_TRUE(controller_->AddEntry("tlm_filter", *entry).ok());

  for (uint32_t seq = 1; seq <= 3; ++seq) {
    net::Packet p = MakeV4Packet(config_.v4_dst_base + 7);
    size_t size_before = p.size();
    auto result = Send(p, /*port=*/4);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->dropped);
    // 8 telemetry bytes inserted after Ethernet, EtherType retagged.
    EXPECT_EQ(p.size(), size_before + 8);
    net::EthernetView eth(p.bytes());
    EXPECT_EQ(eth.ether_type(), 0x88B5);
    auto tlm = p.bytes().subspan(14, 8);
    EXPECT_EQ(util::LoadBe16(tlm.data()), net::kEtherTypeIpv4);
    EXPECT_EQ(util::LoadBe16(tlm.data() + 2), 4u);        // ingress port
    EXPECT_EQ(util::LoadBe32(tlm.data() + 4), seq);       // hop sequence
    // The inner IPv4 packet still got routed (TTL decremented earlier in
    // the pipeline) and DMAC forwarding still chose the right port.
    net::Ipv4View ip(p.bytes().subspan(14 + 8));
    EXPECT_EQ(ip.ttl(), 63);
  }

  // Non-matching traffic is untouched.
  net::Packet other = MakeV4Packet(0x0A550001);  // outside the /24
  size_t size_before = other.size();
  ASSERT_TRUE(Send(other).ok());
  EXPECT_EQ(other.size(), size_before);

  // Offload restores the plain pipeline and recycles the filter table.
  ASSERT_TRUE(controller_
                  ->ApplyScript(controller::designs::TelemetryRemoveScript(),
                                ResolveSnippet)
                  .ok());
  net::Packet after = MakeV4Packet(config_.v4_dst_base + 7);
  size_before = after.size();
  ASSERT_TRUE(Send(after).ok());
  EXPECT_EQ(after.size(), size_before);
}

TEST_F(Rp4FlowTest, ProcessTraceRecordsStageExecution) {
  net::Packet p = MakeV4Packet(config_.v4_dst_base + 7);
  telemetry::ProcessTrace trace;
  auto result = device_->Process(p, 0, &trace);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(trace.steps.empty());
  // Every base stage appears in pipeline order.
  std::vector<std::string> stages;
  for (const auto& s : trace.steps) stages.push_back(s.stage);
  auto pos = [&stages](std::string_view n) {
    return std::find(stages.begin(), stages.end(), n) - stages.begin();
  };
  EXPECT_LT(pos("port_map"), pos("ipv4_lpm"));
  EXPECT_LT(pos("ipv4_lpm"), pos("nexthop"));
  EXPECT_LT(pos("nexthop"), pos("dmac"));
  // The FIB step shows a hit with the right table and action.
  for (const auto& s : trace.steps) {
    if (s.stage == "ipv4_lpm") {
      EXPECT_EQ(s.table, "ipv4_lpm");
      EXPECT_TRUE(s.hit);
      EXPECT_EQ(s.action, "set_nexthop");
    }
    if (s.stage == "l2_l3_rewrite") {
      EXPECT_EQ(s.action, "rewrite_v4");
    }
  }
  // JIT parsing is visible: some step extracted the ethernet+ipv4 bytes.
  uint64_t parsed = 0;
  for (const auto& s : trace.steps) parsed += s.parse_bytes;
  EXPECT_GE(parsed, 34u);  // ethernet + ipv4 at least
  // PHV records what ended up parsed.
  EXPECT_NE(std::find(trace.parsed_headers.begin(),
                      trace.parsed_headers.end(), "ipv4"),
            trace.parsed_headers.end());
}

TEST_F(Rp4FlowTest, TableHitCountersTrackTraffic) {
  auto lpm = device_->catalog().Get("ipv4_lpm");
  ASSERT_TRUE(lpm.ok());
  uint64_t hits_before = (*lpm)->hits();
  for (int i = 0; i < 5; ++i) {
    net::Packet p = MakeV4Packet(config_.v4_dst_base + 1);
    ASSERT_TRUE(Send(p).ok());
  }
  EXPECT_EQ((*lpm)->hits(), hits_before + 5);
  // Off-pool destination covered only by the /8: still a hit.
  net::Packet p = MakeV4Packet(0x0A550000);
  ASSERT_TRUE(Send(p).ok());
  EXPECT_EQ((*lpm)->hits(), hits_before + 6);
  // Non-10/8 destination: a miss on the FIB.
  uint64_t misses_before = (*lpm)->misses();
  net::Packet q = MakeV4Packet(0x0B000001);
  ASSERT_TRUE(Send(q).ok());
  EXPECT_EQ((*lpm)->misses(), misses_before + 1);
}

TEST_F(Rp4FlowTest, DoubleLoadOfFunctionRejected) {
  ASSERT_TRUE(controller_
                  ->ApplyScript(controller::designs::EcmpScript(),
                                ResolveSnippet)
                  .ok());
  // Loading the same function again must fail cleanly (update = remove +
  // load), leaving the device running.
  auto again = controller_->ApplyScript(controller::designs::EcmpScript(),
                                        ResolveSnippet);
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
  net::Packet p = MakeV4Packet(config_.v4_dst_base + 1);
  EXPECT_TRUE(Send(p).ok());
}

TEST_F(Rp4FlowTest, TwoSwitchTopologyForwardsHopByHop) {
  // A second switch wired port-to-port behind the first: the rewritten
  // packet from switch A enters switch B, whose l2_l3 table recognizes the
  // nexthop DMAC as its own router MAC, so B routes it again (TTL 64->62).
  ipbm::IpbmSwitch device_b;
  controller::Rp4FlowController ctl_b(device_b, compiler::Rp4bcOptions{});
  ASSERT_TRUE(ctl_b.LoadBaseFromP4(controller::designs::BaseP4()).ok());
  BaselineConfig config_b = config_;
  // Switch B's router MACs are switch A's nexthop DMACs.
  config_b.router_mac_base = config_.nh_dmac_base + 100;
  config_b.nh_dmac_base = 0x02CCCCCC0000ull;
  auto add_b = [&ctl_b](const std::string& t, const table::Entry& e) {
    return ctl_b.AddEntry(t, e);
  };
  ASSERT_TRUE(
      controller::PopulateBaseline(ctl_b.api(), add_b, config_b).ok());

  net::Packet p = MakeV4Packet(config_.v4_dst_base + 9);
  auto hop1 = Send(p);
  ASSERT_TRUE(hop1.ok());
  ASSERT_FALSE(hop1->dropped);
  auto hop2 = device_b.Process(p, hop1->egress_port);
  ASSERT_TRUE(hop2.ok()) << hop2.status().ToString();
  EXPECT_FALSE(hop2->dropped);
  net::Ipv4View ip(p.bytes().subspan(net::EthernetView::kSize));
  EXPECT_EQ(ip.ttl(), 62);  // decremented by both hops
  net::EthernetView eth(p.bytes());
  EXPECT_EQ(eth.dst().ToUint64() & 0xFFFFFF0000ull,
            config_b.nh_dmac_base & 0xFFFFFF0000ull);
  // Both hops kept the checksum valid.
  EXPECT_EQ(net::InternetChecksum(
                p.bytes().subspan(net::EthernetView::kSize, 20)),
            0);
}

// --- PISA flow ---------------------------------------------------------------

class PisaFlowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<pisa::PisaSwitch>(pisa::PisaOptions{});
    controller_ = std::make_unique<controller::PisaFlowController>(
        *device_, compiler::PisaBackendOptions{});
    auto timing = controller_->CompileAndLoad(controller::designs::BaseP4());
    ASSERT_TRUE(timing.ok()) << timing.status().ToString();
    auto add = [this](const std::string& table, const table::Entry& e) {
      return controller_->AddEntry(table, e);
    };
    ASSERT_TRUE(
        controller::PopulateBaseline(controller_->api(), add, config_).ok());
  }

  BaselineConfig config_;
  std::unique_ptr<pisa::PisaSwitch> device_;
  std::unique_ptr<controller::PisaFlowController> controller_;
};

TEST_F(PisaFlowTest, BaseDesignRoutesIpv4) {
  net::Packet p = MakeV4Packet(config_.v4_dst_base + 7);
  auto result = device_->Process(p, 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->dropped);
  uint32_t nh = config_.NexthopOf(7);
  EXPECT_EQ(result->egress_port, config_.PortOfNexthop(nh));
  net::Ipv4View ip(p.bytes().subspan(net::EthernetView::kSize));
  EXPECT_EQ(ip.ttl(), 63);
}

TEST_F(PisaFlowTest, UpdateRequiresFullReloadButKeepsShadowEntries) {
  uint64_t loads_before = device_->stats().full_loads;
  auto timing =
      controller_->CompileAndLoad(controller::designs::BasePlusEcmpP4());
  ASSERT_TRUE(timing.ok()) << timing.status().ToString();
  EXPECT_EQ(device_->stats().full_loads, loads_before + 1);

  // After the reload + shadow repopulation, the base traffic still routes.
  net::Packet p = MakeV4Packet(config_.v4_dst_base + 7);
  auto result = device_->Process(p, 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->dropped);
}

// --- pbm / ipbm equivalence -----------------------------------------------------

TEST(EquivalenceTest, BothDevicesForwardIdentically) {
  ipbm::IpbmSwitch ipsa_dev{ipbm::IpbmOptions{}};
  controller::Rp4FlowController rp4(ipsa_dev, compiler::Rp4bcOptions{});
  ASSERT_TRUE(rp4.LoadBaseFromP4(controller::designs::BaseP4()).ok());

  pisa::PisaSwitch pisa_dev{pisa::PisaOptions{}};
  controller::PisaFlowController p4(pisa_dev,
                                    compiler::PisaBackendOptions{});
  ASSERT_TRUE(p4.CompileAndLoad(controller::designs::BaseP4()).ok());

  BaselineConfig config;
  ASSERT_TRUE(controller::PopulateBaseline(
                  rp4.api(),
                  [&](const std::string& t, const table::Entry& e) {
                    return rp4.AddEntry(t, e);
                  },
                  config)
                  .ok());
  ASSERT_TRUE(controller::PopulateBaseline(
                  p4.api(),
                  [&](const std::string& t, const table::Entry& e) {
                    return p4.AddEntry(t, e);
                  },
                  config)
                  .ok());

  net::WorkloadConfig wcfg;
  wcfg.flow_count = 64;
  wcfg.ipv6_fraction = 0.3;
  net::Workload workload(wcfg);
  for (int i = 0; i < 200; ++i) {
    net::Packet a = workload.NextPacket();
    net::Packet b = a;  // identical copy for the other device
    auto ra = ipsa_dev.Process(a, 1);
    auto rb = pisa_dev.Process(b, 1);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    EXPECT_EQ(ra->dropped, rb->dropped) << "packet " << i;
    EXPECT_EQ(ra->egress_port, rb->egress_port) << "packet " << i;
    EXPECT_EQ(a, b) << "diverging packet rewrite at packet " << i;
  }
}

TEST_F(Rp4FlowTest, EcmpMemberRemovalUnderLiveTraffic) {
  // C1 installed and populated: 64 buckets over 8 nexthop members.
  ASSERT_TRUE(controller_
                  ->ApplyScript(controller::designs::EcmpScript(),
                                ResolveSnippet)
                  .ok());
  auto add = [this](const std::string& table, const table::Entry& e) {
    return controller_->AddEntry(table, e);
  };
  ASSERT_TRUE(controller::PopulateEcmp(controller_->api(), add, config_).ok());

  // First half of the batch: record each flow's member choice.
  const uint32_t kFlows = 48;
  const uint32_t victim_nh = 103;
  const uint64_t victim_dmac = config_.nh_dmac_base + victim_nh;
  uint32_t hit_victim = 0;
  for (uint32_t k = 0; k < kFlows; ++k) {
    net::Packet p = MakeV4Packet(config_.v4_dst_base + k);
    auto result = Send(p);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->dropped);
    net::EthernetView eth(p.bytes());
    if (eth.dst().ToUint64() == victim_dmac) ++hit_victim;
  }
  ASSERT_GT(hit_victim, 0u) << "test needs flows on the victim member";

  // Mid-batch group mutation: erase every bucket hosting the victim
  // member. Each erase is a CCM command, so the epoch must advance.
  uint64_t epoch_before = device_->config_epoch();
  controller::EntryBuilder builder(controller_->api());
  for (uint32_t b = 0; b < 64; ++b) {
    if (100 + b % config_.nexthop_count != victim_nh) continue;
    for (const char* table : {"ecmp_ipv4", "ecmp_ipv6"}) {
      auto member = builder.BuildSelectorMember(
          table, b, "set_bd_dmac",
          {controller::Bits(16, config_.l3_bd),
           controller::MacBits(victim_dmac)});
      ASSERT_TRUE(member.ok()) << member.status().ToString();
      ASSERT_TRUE(device_->EraseEntry(table, *member).ok());
    }
  }
  EXPECT_GT(device_->config_epoch(), epoch_before);

  // Second half: every flow still forwards and none maps to the removed
  // member — the selector re-hashes over the surviving buckets only.
  for (uint32_t k = 0; k < kFlows; ++k) {
    net::Packet p = MakeV4Packet(config_.v4_dst_base + k);
    auto result = Send(p);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->dropped);
    net::EthernetView eth(p.bytes());
    uint64_t dmac = eth.dst().ToUint64();
    EXPECT_NE(dmac, victim_dmac) << "flow " << k << " maps to erased member";
    EXPECT_GE(dmac, config_.nh_dmac_base + 100);
    EXPECT_LT(dmac, config_.nh_dmac_base + 100 + config_.nexthop_count);
  }
}

TEST_F(Rp4FlowTest, FabricEcmpSpliceKeepsLocalRoutePriority) {
  // The fabric leaf program: fab_ecmp spliced between the FIB and nexthop.
  // Local routes (real nexthop ids) must win over the selector's spine
  // choice; uplink routes (reserved id 200, no nexthop entry) must keep it.
  ASSERT_TRUE(controller_
                  ->ApplyScript(controller::designs::FabricEcmpScript(),
                                ResolveSnippet)
                  .ok());
  ASSERT_GE(device_->TspOfStage("fab_ecmp"), 0);
  ASSERT_GE(device_->TspOfStage("nexthop"), 0);  // kept, unlike stock C1

  const uint64_t kSpineMacBase = 0x02F100000000ull;
  const uint32_t kSpines = 2;
  const uint32_t kUplinkPortBase = 8;
  controller::EntryBuilder builder(controller_->api());
  for (uint32_t b = 0; b < 8; ++b) {
    auto member = builder.BuildSelectorMember(
        "fab_ecmp_v4", b, "fab_set_spine",
        {controller::Bits(16, config_.l3_bd),
         controller::MacBits(kSpineMacBase + 1 + b % kSpines)});
    ASSERT_TRUE(member.ok()) << member.status().ToString();
    ASSERT_TRUE(controller_->AddEntry("fab_ecmp_v4", *member).ok());
  }
  for (uint32_t s = 0; s < kSpines; ++s) {
    auto e = builder.Build(
        "dmac", "set_port",
        {controller::KeyValue(config_.l3_bd),
         controller::KeyValue(controller::MacBits(kSpineMacBase + 1 + s))},
        {controller::Bits(9, kUplinkPortBase + s)});
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    ASSERT_TRUE(controller_->AddEntry("dmac", *e).ok());
  }
  // Uplink prefix 10.99.0.0/16 -> reserved nexthop id 200 (no entry).
  auto uplink = builder.Build(
      "ipv4_lpm", "set_nexthop",
      {controller::KeyValue(controller::Ipv4Bits(0x0A630000))},
      {controller::Bits(16, 200)}, /*prefix_len=*/16);
  ASSERT_TRUE(uplink.ok()) << uplink.status().ToString();
  ASSERT_TRUE(controller_->AddEntry("ipv4_lpm", *uplink).ok());

  // Local destination: the nexthop hit overwrites the selector's choice.
  {
    net::Packet p = MakeV4Packet(config_.v4_dst_base + 7);
    auto result = Send(p);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->dropped);
    uint32_t nh = config_.NexthopOf(7);
    EXPECT_EQ(result->egress_port, config_.PortOfNexthop(nh));
    net::EthernetView eth(p.bytes());
    EXPECT_EQ(eth.dst().ToUint64(), config_.nh_dmac_base + nh);
  }
  // Uplink destinations: the selector's spine MAC survives the nexthop
  // miss and steers the packet to a spine-facing port, flow-stably.
  uint32_t spine_hits[kSpines] = {0, 0};
  for (uint32_t k = 0; k < 16; ++k) {
    uint32_t first_port = 0;
    for (int repeat = 0; repeat < 2; ++repeat) {
      net::Packet p = MakeV4Packet(0x0A630000 + 0x100 * k + 1);
      auto result = Send(p);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_FALSE(result->dropped);
      ASSERT_GE(result->egress_port, kUplinkPortBase);
      ASSERT_LT(result->egress_port, kUplinkPortBase + kSpines);
      net::EthernetView eth(p.bytes());
      EXPECT_EQ(eth.dst().ToUint64(),
                kSpineMacBase + 1 + (result->egress_port - kUplinkPortBase));
      if (repeat == 0) {
        first_port = result->egress_port;
        ++spine_hits[result->egress_port - kUplinkPortBase];
      } else {
        EXPECT_EQ(result->egress_port, first_port) << "ECMP must be stable";
      }
    }
  }
  EXPECT_GT(spine_hits[0], 0u) << "ECMP never picked spine 0";
  EXPECT_GT(spine_hits[1], 0u) << "ECMP never picked spine 1";
}

}  // namespace
}  // namespace ipsa
