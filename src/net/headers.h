// Concrete wire-format header views for the protocols the paper's use cases
// exercise: Ethernet, IPv4, IPv6, the SRv6 SRH extension header, UDP and
// TCP.
//
// These are *views*: lightweight accessors over bytes inside a Packet. The
// switches themselves parse headers generically from HeaderType descriptors
// (src/arch/header_types.h); these concrete views exist so tests, workload
// generators and examples can build and check packets precisely.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "util/bitops.h"

namespace ipsa::net {

// ---------------------------------------------------------------------------
// Address types
// ---------------------------------------------------------------------------

struct MacAddr {
  std::array<uint8_t, 6> bytes{};

  static MacAddr FromUint64(uint64_t v);
  uint64_t ToUint64() const;
  std::string ToString() const;  // "aa:bb:cc:dd:ee:ff"
  bool operator==(const MacAddr&) const = default;
};

struct Ipv4Addr {
  uint32_t value = 0;  // host byte order

  // Parses dotted-quad "10.0.0.1"; returns zero address on malformed input.
  static Ipv4Addr FromString(std::string_view s);
  std::string ToString() const;
  bool operator==(const Ipv4Addr&) const = default;
};

struct Ipv6Addr {
  std::array<uint8_t, 16> bytes{};

  // Builds from 8 16-bit groups, host order (g0 is the leftmost group).
  static Ipv6Addr FromGroups(const std::array<uint16_t, 8>& groups);
  std::string ToString() const;  // full form, no :: compression
  bool operator==(const Ipv6Addr&) const = default;
};

// ---------------------------------------------------------------------------
// EtherTypes / IP protocol numbers used in the use cases
// ---------------------------------------------------------------------------

inline constexpr uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr uint16_t kEtherTypeIpv6 = 0x86DD;

inline constexpr uint8_t kIpProtoTcp = 6;
inline constexpr uint8_t kIpProtoUdp = 17;
inline constexpr uint8_t kIpProtoIpv4 = 4;    // IPv4-in-IPv6
inline constexpr uint8_t kIpProtoIpv6 = 41;   // IPv6-in-IPv6
inline constexpr uint8_t kIpProtoRouting = 43;  // routing ext header (SRH)

// ---------------------------------------------------------------------------
// Header views
// ---------------------------------------------------------------------------

class EthernetView {
 public:
  static constexpr size_t kSize = 14;
  explicit EthernetView(std::span<uint8_t> bytes) : b_(bytes) {}

  MacAddr dst() const;
  MacAddr src() const;
  uint16_t ether_type() const { return util::LoadBe16(b_.data() + 12); }

  void set_dst(const MacAddr& m);
  void set_src(const MacAddr& m);
  void set_ether_type(uint16_t v) { util::StoreBe16(b_.data() + 12, v); }

 private:
  std::span<uint8_t> b_;
};

class Ipv4View {
 public:
  static constexpr size_t kSize = 20;  // no options in our workloads
  explicit Ipv4View(std::span<uint8_t> bytes) : b_(bytes) {}

  uint8_t version() const { return b_[0] >> 4; }
  uint8_t ihl() const { return b_[0] & 0x0F; }
  uint8_t dscp() const { return b_[1] >> 2; }
  uint16_t total_length() const { return util::LoadBe16(b_.data() + 2); }
  uint16_t identification() const { return util::LoadBe16(b_.data() + 4); }
  uint8_t ttl() const { return b_[8]; }
  uint8_t protocol() const { return b_[9]; }
  uint16_t checksum() const { return util::LoadBe16(b_.data() + 10); }
  Ipv4Addr src() const { return {util::LoadBe32(b_.data() + 12)}; }
  Ipv4Addr dst() const { return {util::LoadBe32(b_.data() + 16)}; }

  void set_version_ihl(uint8_t version, uint8_t ihl) {
    b_[0] = static_cast<uint8_t>(version << 4 | (ihl & 0x0F));
  }
  void set_dscp(uint8_t v) {
    b_[1] = static_cast<uint8_t>((v << 2) | (b_[1] & 0x03));
  }
  void set_total_length(uint16_t v) { util::StoreBe16(b_.data() + 2, v); }
  void set_identification(uint16_t v) { util::StoreBe16(b_.data() + 4, v); }
  void set_ttl(uint8_t v) { b_[8] = v; }
  void set_protocol(uint8_t v) { b_[9] = v; }
  void set_checksum(uint16_t v) { util::StoreBe16(b_.data() + 10, v); }
  void set_src(Ipv4Addr a) { util::StoreBe32(b_.data() + 12, a.value); }
  void set_dst(Ipv4Addr a) { util::StoreBe32(b_.data() + 16, a.value); }

  // Recomputes and stores the header checksum over the fixed 20 bytes.
  void UpdateChecksum();

 private:
  std::span<uint8_t> b_;
};

class Ipv6View {
 public:
  static constexpr size_t kSize = 40;
  explicit Ipv6View(std::span<uint8_t> bytes) : b_(bytes) {}

  uint8_t version() const { return b_[0] >> 4; }
  uint32_t flow_label() const {
    return util::LoadBe32(b_.data()) & 0x000FFFFF;
  }
  uint16_t payload_length() const { return util::LoadBe16(b_.data() + 4); }
  uint8_t next_header() const { return b_[6]; }
  uint8_t hop_limit() const { return b_[7]; }
  Ipv6Addr dst() const;

  void set_version(uint8_t v) {
    b_[0] = static_cast<uint8_t>((v << 4) | (b_[0] & 0x0F));
  }
  void set_payload_length(uint16_t v) { util::StoreBe16(b_.data() + 4, v); }
  void set_next_header(uint8_t v) { b_[6] = v; }
  void set_hop_limit(uint8_t v) { b_[7] = v; }
  void set_src(const Ipv6Addr& a);
  void set_dst(const Ipv6Addr& a);

 private:
  std::span<uint8_t> b_;
};

// IPv6 Segment Routing Header (RFC 8754). Fixed 8 bytes + 16 per segment.
class SrhView {
 public:
  static constexpr size_t kFixedSize = 8;
  static size_t SizeForSegments(size_t n) { return kFixedSize + 16 * n; }

  explicit SrhView(std::span<uint8_t> bytes) : b_(bytes) {}

  uint8_t next_header() const { return b_[0]; }
  uint8_t hdr_ext_len() const { return b_[1]; }  // in 8-byte units minus 1
  uint8_t routing_type() const { return b_[2]; }  // 4 for SRH
  uint8_t segments_left() const { return b_[3]; }
  uint8_t last_entry() const { return b_[4]; }
  Ipv6Addr segment(size_t i) const;
  size_t segment_count() const { return static_cast<size_t>(last_entry()) + 1; }
  size_t size_bytes() const { return (static_cast<size_t>(hdr_ext_len()) + 1) * 8; }

  void set_next_header(uint8_t v) { b_[0] = v; }
  void set_hdr_ext_len(uint8_t v) { b_[1] = v; }
  void set_routing_type(uint8_t v) { b_[2] = v; }
  void set_segments_left(uint8_t v) { b_[3] = v; }
  void set_last_entry(uint8_t v) { b_[4] = v; }
  void set_segment(size_t i, const Ipv6Addr& a);

 private:
  std::span<uint8_t> b_;
};

class UdpView {
 public:
  static constexpr size_t kSize = 8;
  explicit UdpView(std::span<uint8_t> bytes) : b_(bytes) {}

  uint16_t src_port() const { return util::LoadBe16(b_.data()); }
  uint16_t dst_port() const { return util::LoadBe16(b_.data() + 2); }
  uint16_t length() const { return util::LoadBe16(b_.data() + 4); }

  void set_src_port(uint16_t v) { util::StoreBe16(b_.data(), v); }
  void set_dst_port(uint16_t v) { util::StoreBe16(b_.data() + 2, v); }
  void set_length(uint16_t v) { util::StoreBe16(b_.data() + 4, v); }

 private:
  std::span<uint8_t> b_;
};

class TcpView {
 public:
  static constexpr size_t kSize = 20;
  explicit TcpView(std::span<uint8_t> bytes) : b_(bytes) {}

  uint16_t src_port() const { return util::LoadBe16(b_.data()); }
  uint16_t dst_port() const { return util::LoadBe16(b_.data() + 2); }
  uint32_t seq() const { return util::LoadBe32(b_.data() + 4); }

  void set_src_port(uint16_t v) { util::StoreBe16(b_.data(), v); }
  void set_dst_port(uint16_t v) { util::StoreBe16(b_.data() + 2, v); }
  void set_seq(uint32_t v) { util::StoreBe32(b_.data() + 4, v); }
  void set_data_offset(uint8_t words) {
    b_[12] = static_cast<uint8_t>((words & 0x0F) << 4);
  }

 private:
  std::span<uint8_t> b_;
};

}  // namespace ipsa::net
