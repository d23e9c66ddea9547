// Fluent packet construction for tests, examples and workload generation.
//
//   Packet p = PacketBuilder()
//                  .Ethernet(dst, src, kEtherTypeIpv4)
//                  .Ipv4(src_ip, dst_ip, kIpProtoUdp)
//                  .Udp(1234, 80)
//                  .Payload(64)
//                  .Build();
//
// Length and checksum fields are fixed up in Build().
#pragma once

#include <cstdint>
#include <vector>

#include "net/headers.h"
#include "net/packet.h"

namespace ipsa::net {

class PacketBuilder {
 public:
  PacketBuilder& Ethernet(const MacAddr& dst, const MacAddr& src,
                          uint16_t ether_type);
  PacketBuilder& Ipv4(Ipv4Addr src, Ipv4Addr dst, uint8_t protocol,
                      uint8_t ttl = 64, uint8_t dscp = 0);
  PacketBuilder& Ipv6(const Ipv6Addr& src, const Ipv6Addr& dst,
                      uint8_t next_header, uint8_t hop_limit = 64);
  // SRv6 SRH with the given segment list; segments_left indexes into it.
  PacketBuilder& Srh(const std::vector<Ipv6Addr>& segments,
                     uint8_t segments_left, uint8_t next_header);
  PacketBuilder& Udp(uint16_t src_port, uint16_t dst_port);
  PacketBuilder& Tcp(uint16_t src_port, uint16_t dst_port, uint32_t seq = 0);
  // Appends `size` deterministic filler bytes.
  PacketBuilder& Payload(size_t size, uint8_t fill = 0xAB);
  PacketBuilder& RawBytes(std::span<const uint8_t> bytes);

  // Fixes up IPv4 total_length/checksum, IPv6 payload_length and UDP length
  // fields, then returns the finished packet.
  Packet Build();

 private:
  struct Fixup {
    enum class Kind { kIpv4, kIpv6, kUdp } kind;
    size_t offset;
  };

  std::vector<uint8_t> bytes_;
  std::vector<Fixup> fixups_;
};

}  // namespace ipsa::net
