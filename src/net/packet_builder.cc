#include "net/packet_builder.h"

#include <cassert>

namespace ipsa::net {

PacketBuilder& PacketBuilder::Ethernet(const MacAddr& dst, const MacAddr& src,
                                       uint16_t ether_type) {
  size_t off = bytes_.size();
  bytes_.resize(off + EthernetView::kSize);
  EthernetView view(std::span<uint8_t>(bytes_).subspan(off));
  view.set_dst(dst);
  view.set_src(src);
  view.set_ether_type(ether_type);
  return *this;
}

PacketBuilder& PacketBuilder::Ipv4(Ipv4Addr src, Ipv4Addr dst,
                                   uint8_t protocol, uint8_t ttl,
                                   uint8_t dscp) {
  size_t off = bytes_.size();
  bytes_.resize(off + Ipv4View::kSize);
  Ipv4View view(std::span<uint8_t>(bytes_).subspan(off));
  view.set_version_ihl(4, 5);
  view.set_dscp(dscp);
  view.set_ttl(ttl);
  view.set_protocol(protocol);
  view.set_src(src);
  view.set_dst(dst);
  fixups_.push_back({Fixup::Kind::kIpv4, off});
  return *this;
}

PacketBuilder& PacketBuilder::Ipv6(const Ipv6Addr& src, const Ipv6Addr& dst,
                                   uint8_t next_header, uint8_t hop_limit) {
  size_t off = bytes_.size();
  bytes_.resize(off + Ipv6View::kSize);
  Ipv6View view(std::span<uint8_t>(bytes_).subspan(off));
  view.set_version(6);
  view.set_next_header(next_header);
  view.set_hop_limit(hop_limit);
  view.set_src(src);
  view.set_dst(dst);
  fixups_.push_back({Fixup::Kind::kIpv6, off});
  return *this;
}

PacketBuilder& PacketBuilder::Srh(const std::vector<Ipv6Addr>& segments,
                                  uint8_t segments_left, uint8_t next_header) {
  assert(!segments.empty());
  size_t off = bytes_.size();
  size_t size = SrhView::SizeForSegments(segments.size());
  bytes_.resize(off + size);
  SrhView view(std::span<uint8_t>(bytes_).subspan(off, size));
  view.set_next_header(next_header);
  view.set_hdr_ext_len(static_cast<uint8_t>(size / 8 - 1));
  view.set_routing_type(4);
  view.set_segments_left(segments_left);
  view.set_last_entry(static_cast<uint8_t>(segments.size() - 1));
  for (size_t i = 0; i < segments.size(); ++i) {
    view.set_segment(i, segments[i]);
  }
  return *this;
}

PacketBuilder& PacketBuilder::Udp(uint16_t src_port, uint16_t dst_port) {
  size_t off = bytes_.size();
  bytes_.resize(off + UdpView::kSize);
  UdpView view(std::span<uint8_t>(bytes_).subspan(off));
  view.set_src_port(src_port);
  view.set_dst_port(dst_port);
  fixups_.push_back({Fixup::Kind::kUdp, off});
  return *this;
}

PacketBuilder& PacketBuilder::Tcp(uint16_t src_port, uint16_t dst_port,
                                  uint32_t seq) {
  size_t off = bytes_.size();
  bytes_.resize(off + TcpView::kSize);
  TcpView view(std::span<uint8_t>(bytes_).subspan(off));
  view.set_src_port(src_port);
  view.set_dst_port(dst_port);
  view.set_seq(seq);
  view.set_data_offset(5);
  return *this;
}

PacketBuilder& PacketBuilder::Payload(size_t size, uint8_t fill) {
  size_t off = bytes_.size();
  bytes_.resize(off + size);
  for (size_t i = 0; i < size; ++i) {
    bytes_[off + i] = static_cast<uint8_t>(fill + i);
  }
  return *this;
}

PacketBuilder& PacketBuilder::RawBytes(std::span<const uint8_t> raw) {
  bytes_.insert(bytes_.end(), raw.begin(), raw.end());
  return *this;
}

Packet PacketBuilder::Build() {
  // Apply length/checksum fixups from the innermost header outwards so outer
  // lengths include inner ones.
  for (auto it = fixups_.rbegin(); it != fixups_.rend(); ++it) {
    std::span<uint8_t> rest = std::span<uint8_t>(bytes_).subspan(it->offset);
    switch (it->kind) {
      case Fixup::Kind::kIpv4: {
        Ipv4View view(rest);
        view.set_total_length(static_cast<uint16_t>(rest.size()));
        view.UpdateChecksum();
        break;
      }
      case Fixup::Kind::kIpv6: {
        Ipv6View view(rest);
        view.set_payload_length(
            static_cast<uint16_t>(rest.size() - Ipv6View::kSize));
        break;
      }
      case Fixup::Kind::kUdp: {
        UdpView view(rest);
        view.set_length(static_cast<uint16_t>(rest.size()));
        break;
      }
    }
  }
  return Packet(bytes_);
}

}  // namespace ipsa::net
