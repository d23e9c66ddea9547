#include <gtest/gtest.h>

#include "net/checksum.h"
#include "net/headers.h"
#include "net/packet.h"
#include "net/packet_builder.h"
#include "net/ports.h"
#include "net/workload.h"

namespace ipsa::net {
namespace {

// --- packet buffer --------------------------------------------------------------

TEST(PacketTest, ConstructFromBytes) {
  std::vector<uint8_t> bytes{1, 2, 3, 4};
  Packet p(bytes);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.data()[0], 1);
  EXPECT_EQ(p.data()[3], 4);
}

TEST(PacketTest, InsertUsesHeadroom) {
  std::vector<uint8_t> bytes{1, 2, 3, 4};
  Packet p(bytes);
  size_t headroom_before = p.headroom();
  ASSERT_TRUE(p.InsertBytes(2, 3).ok());
  EXPECT_EQ(p.size(), 7u);
  EXPECT_LT(p.headroom(), headroom_before);
  // Leading bytes preserved, gap zeroed, trailing preserved.
  EXPECT_EQ(p.data()[0], 1);
  EXPECT_EQ(p.data()[1], 2);
  EXPECT_EQ(p.data()[2], 0);
  EXPECT_EQ(p.data()[4], 0);
  EXPECT_EQ(p.data()[5], 3);
  EXPECT_EQ(p.data()[6], 4);
}

TEST(PacketTest, InsertWithoutHeadroomGrows) {
  std::vector<uint8_t> bytes{1, 2, 3, 4};
  Packet p(bytes, /*headroom=*/0);
  ASSERT_TRUE(p.InsertBytes(1, 2).ok());
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.data()[0], 1);
  EXPECT_EQ(p.data()[1], 0);
  EXPECT_EQ(p.data()[2], 0);
  EXPECT_EQ(p.data()[3], 2);
}

TEST(PacketTest, RemoveClosesGap) {
  std::vector<uint8_t> bytes{1, 2, 3, 4, 5, 6};
  Packet p(bytes);
  ASSERT_TRUE(p.RemoveBytes(2, 2).ok());
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.data()[0], 1);
  EXPECT_EQ(p.data()[1], 2);
  EXPECT_EQ(p.data()[2], 5);
  EXPECT_EQ(p.data()[3], 6);
}

TEST(PacketTest, InsertRemoveInverse) {
  std::vector<uint8_t> bytes{9, 8, 7, 6, 5};
  Packet p(bytes);
  Packet original = p;
  ASSERT_TRUE(p.InsertBytes(3, 8).ok());
  ASSERT_TRUE(p.RemoveBytes(3, 8).ok());
  EXPECT_EQ(p, original);
}

TEST(PacketTest, OutOfRangeRejected) {
  std::vector<uint8_t> bytes{1, 2};
  Packet p(bytes);
  EXPECT_FALSE(p.InsertBytes(3, 1).ok());
  EXPECT_FALSE(p.RemoveBytes(1, 5).ok());
}

// --- addresses -------------------------------------------------------------------

TEST(AddrTest, MacRoundTrip) {
  MacAddr m = MacAddr::FromUint64(0x0A0B0C0D0E0Full);
  EXPECT_EQ(m.ToUint64(), 0x0A0B0C0D0E0Full);
  EXPECT_EQ(m.ToString(), "0a:0b:0c:0d:0e:0f");
}

TEST(AddrTest, Ipv4Parse) {
  EXPECT_EQ(Ipv4Addr::FromString("10.0.0.1").value, 0x0A000001u);
  EXPECT_EQ(Ipv4Addr::FromString("255.255.255.255").value, 0xFFFFFFFFu);
  EXPECT_EQ(Ipv4Addr::FromString("bad").value, 0u);
  EXPECT_EQ(Ipv4Addr::FromString("1.2.3.256").value, 0u);
}

TEST(AddrTest, Ipv6Groups) {
  Ipv6Addr a = Ipv6Addr::FromGroups({0x2001, 0xdb8, 0, 0, 0, 0, 0, 1});
  EXPECT_EQ(a.bytes[0], 0x20);
  EXPECT_EQ(a.bytes[1], 0x01);
  EXPECT_EQ(a.bytes[15], 0x01);
  EXPECT_EQ(a.ToString(), "2001:db8:0:0:0:0:0:1");
}

// --- checksum ---------------------------------------------------------------------

TEST(ChecksumTest, KnownIpv4Header) {
  // Classic example from RFC 1071 discussions.
  uint8_t header[] = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
                      0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01,
                      0xc0, 0xa8, 0x00, 0xc7};
  EXPECT_EQ(InternetChecksum(header), 0xB861);
}

TEST(ChecksumTest, VerifiesToZero) {
  uint8_t header[] = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
                      0x40, 0x11, 0xb8, 0x61, 0xc0, 0xa8, 0x00, 0x01,
                      0xc0, 0xa8, 0x00, 0xc7};
  EXPECT_EQ(InternetChecksum(header), 0x0000);
}

// --- header views + builder ---------------------------------------------------------

TEST(BuilderTest, Ipv4UdpPacketFields) {
  Packet p = PacketBuilder()
                 .Ethernet(MacAddr::FromUint64(0x1), MacAddr::FromUint64(0x2),
                           kEtherTypeIpv4)
                 .Ipv4(Ipv4Addr::FromString("1.2.3.4"),
                       Ipv4Addr::FromString("5.6.7.8"), kIpProtoUdp, 61)
                 .Udp(1000, 2000)
                 .Payload(10)
                 .Build();
  EthernetView eth(p.bytes());
  EXPECT_EQ(eth.ether_type(), kEtherTypeIpv4);
  Ipv4View ip(p.bytes().subspan(14));
  EXPECT_EQ(ip.version(), 4);
  EXPECT_EQ(ip.ihl(), 5);
  EXPECT_EQ(ip.ttl(), 61);
  EXPECT_EQ(ip.protocol(), kIpProtoUdp);
  EXPECT_EQ(ip.src().ToString(), "1.2.3.4");
  EXPECT_EQ(ip.dst().ToString(), "5.6.7.8");
  EXPECT_EQ(ip.total_length(), 20 + 8 + 10);
  // Header checksum verifies.
  EXPECT_EQ(InternetChecksum(p.bytes().subspan(14, 20)), 0);
  UdpView udp(p.bytes().subspan(34));
  EXPECT_EQ(udp.src_port(), 1000);
  EXPECT_EQ(udp.dst_port(), 2000);
  EXPECT_EQ(udp.length(), 18);
}

TEST(BuilderTest, Srv6PacketLayout) {
  Ipv6Addr seg0 = Ipv6Addr::FromGroups({0x2001, 0, 0, 0, 0, 0, 0, 1});
  Ipv6Addr seg1 = Ipv6Addr::FromGroups({0x2001, 0, 0, 0, 0, 0, 0, 2});
  Packet p = PacketBuilder()
                 .Ethernet(MacAddr{}, MacAddr{}, kEtherTypeIpv6)
                 .Ipv6(seg0, seg1, kIpProtoRouting)
                 .Srh({seg0, seg1}, 1, kIpProtoIpv4)
                 .Ipv4(Ipv4Addr::FromString("10.0.0.1"),
                       Ipv4Addr::FromString("10.0.0.2"), kIpProtoUdp)
                 .Udp(1, 2)
                 .Build();
  Ipv6View ip6(p.bytes().subspan(14));
  EXPECT_EQ(ip6.next_header(), kIpProtoRouting);
  SrhView srh(p.bytes().subspan(14 + 40));
  EXPECT_EQ(srh.routing_type(), 4);
  EXPECT_EQ(srh.segments_left(), 1);
  EXPECT_EQ(srh.last_entry(), 1);
  EXPECT_EQ(srh.size_bytes(), 8u + 32u);
  EXPECT_EQ(srh.segment(0), seg0);
  EXPECT_EQ(srh.segment(1), seg1);
  EXPECT_EQ(srh.next_header(), kIpProtoIpv4);
  // IPv6 payload length covers SRH + inner packet.
  EXPECT_EQ(ip6.payload_length(), p.size() - 14 - 40);
}

// --- ports -----------------------------------------------------------------------

TEST(PortsTest, FifoOrder) {
  PortQueue q(8);
  q.Push(Packet(std::vector<uint8_t>{1}));
  q.Push(Packet(std::vector<uint8_t>{2}));
  EXPECT_EQ(q.Pop()->data()[0], 1);
  EXPECT_EQ(q.Pop()->data()[0], 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(PortsTest, DropsWhenFull) {
  PortQueue q(2);
  EXPECT_TRUE(q.Push(Packet(std::vector<uint8_t>{1})));
  EXPECT_TRUE(q.Push(Packet(std::vector<uint8_t>{2})));
  EXPECT_FALSE(q.Push(Packet(std::vector<uint8_t>{3})));
  EXPECT_EQ(q.drops(), 1u);
}

TEST(PortsTest, PortSetCountsPending) {
  PortSet ports(4);
  ports.port(1).rx().Push(Packet(std::vector<uint8_t>{1}));
  ports.port(3).rx().Push(Packet(std::vector<uint8_t>{2}));
  EXPECT_EQ(ports.PendingRx(), 2u);
}

// --- workload --------------------------------------------------------------------

TEST(WorkloadTest, DeterministicBySeed) {
  WorkloadConfig cfg;
  cfg.seed = 5;
  Workload a(cfg), b(cfg);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.NextPacket(), b.NextPacket());
  }
}

TEST(WorkloadTest, RespectsIpv6Fraction) {
  WorkloadConfig cfg;
  cfg.flow_count = 1000;
  cfg.ipv6_fraction = 0.3;
  Workload w(cfg);
  int v6 = 0;
  for (const auto& f : w.flows()) v6 += f.is_ipv6 ? 1 : 0;
  EXPECT_NEAR(v6 / 1000.0, 0.3, 0.05);
}

TEST(WorkloadTest, DstAddressesInConfiguredPool) {
  WorkloadConfig cfg;
  cfg.v4_dst_base = 0x0A000000;
  cfg.v4_dst_count = 16;
  Workload w(cfg);
  for (const auto& f : w.flows()) {
    if (f.is_ipv6) continue;
    EXPECT_GE(f.v4_dst.value, cfg.v4_dst_base);
    EXPECT_LT(f.v4_dst.value, cfg.v4_dst_base + cfg.v4_dst_count);
  }
}

TEST(WorkloadTest, Srv6PacketLayout) {
  WorkloadConfig cfg;
  Workload w(cfg);
  Ipv6Addr sid = Ipv6Addr::FromGroups({0x2001, 0xdb8, 0xaa, 0, 0, 0, 0, 1});
  Ipv6Addr fin = Ipv6Addr::FromGroups({0x2001, 0xdb8, 0xff, 0, 0, 0, 0, 2});
  Packet p = w.Srv6Packet(sid, {fin, sid}, /*segments_left=*/1);
  EthernetView eth(p.bytes());
  EXPECT_EQ(eth.ether_type(), kEtherTypeIpv6);
  Ipv6View ip6(p.bytes().subspan(14));
  EXPECT_EQ(ip6.dst(), sid);  // active segment is the outer destination
  EXPECT_EQ(ip6.next_header(), kIpProtoRouting);
  SrhView srh(p.bytes().subspan(14 + 40));
  EXPECT_EQ(srh.segments_left(), 1);
  EXPECT_EQ(srh.segment(0), fin);
  EXPECT_EQ(srh.segment(1), sid);
  EXPECT_EQ(srh.next_header(), kIpProtoIpv4);  // inner IPv4
  Ipv4View inner(p.bytes().subspan(14 + 40 + 40));
  EXPECT_EQ(inner.version(), 4);
}

TEST(HeaderViewTest, TcpFields) {
  Packet p = PacketBuilder()
                 .Ethernet(MacAddr{}, MacAddr{}, kEtherTypeIpv4)
                 .Ipv4(Ipv4Addr{}, Ipv4Addr{}, kIpProtoTcp)
                 .Tcp(12345, 443, 0xCAFEBABE)
                 .Build();
  TcpView tcp(p.bytes().subspan(34));
  EXPECT_EQ(tcp.src_port(), 12345);
  EXPECT_EQ(tcp.dst_port(), 443);
  EXPECT_EQ(tcp.seq(), 0xCAFEBABEu);
}

TEST(WorkloadTest, SkewConcentratesTraffic) {
  WorkloadConfig cfg;
  cfg.flow_count = 100;
  cfg.skew = 1.2;
  cfg.seed = 11;
  Workload w(cfg);
  // Count draws of flow 0 vs a uniform workload: should be far more popular.
  std::map<std::string, int> counts;
  for (int i = 0; i < 2000; ++i) {
    Packet p = w.NextPacket();
    Ipv4View ip(p.bytes().subspan(14));
    counts[ip.src().ToString() + ">" + ip.dst().ToString()]++;
  }
  int max_count = 0;
  for (const auto& [k, v] : counts) max_count = std::max(max_count, v);
  EXPECT_GT(max_count, 2000 / 100 * 3);  // >3x the uniform share
}

}  // namespace
}  // namespace ipsa::net
