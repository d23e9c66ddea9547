#include "net/headers.h"

#include <cstdio>

#include "net/checksum.h"
#include "util/strings.h"

namespace ipsa::net {

MacAddr MacAddr::FromUint64(uint64_t v) {
  MacAddr m;
  for (int i = 5; i >= 0; --i) {
    m.bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(v);
    v >>= 8;
  }
  return m;
}

uint64_t MacAddr::ToUint64() const {
  uint64_t v = 0;
  for (uint8_t b : bytes) v = (v << 8) | b;
  return v;
}

std::string MacAddr::ToString() const {
  return util::Format("%02x:%02x:%02x:%02x:%02x:%02x", bytes[0], bytes[1],
                      bytes[2], bytes[3], bytes[4], bytes[5]);
}

Ipv4Addr Ipv4Addr::FromString(std::string_view s) {
  auto parts = util::Split(s, '.');
  if (parts.size() != 4) return {};
  uint32_t v = 0;
  for (const auto& p : parts) {
    auto octet = util::ParseUint(p);
    if (!octet || *octet > 255) return {};
    v = (v << 8) | static_cast<uint32_t>(*octet);
  }
  return {v};
}

std::string Ipv4Addr::ToString() const {
  return util::Format("%u.%u.%u.%u", value >> 24, (value >> 16) & 0xFF,
                      (value >> 8) & 0xFF, value & 0xFF);
}

Ipv6Addr Ipv6Addr::FromGroups(const std::array<uint16_t, 8>& groups) {
  Ipv6Addr a;
  for (size_t i = 0; i < 8; ++i) {
    a.bytes[2 * i] = static_cast<uint8_t>(groups[i] >> 8);
    a.bytes[2 * i + 1] = static_cast<uint8_t>(groups[i]);
  }
  return a;
}

std::string Ipv6Addr::ToString() const {
  std::string out;
  for (size_t i = 0; i < 8; ++i) {
    if (i > 0) out += ':';
    out += util::Format("%x", util::LoadBe16(bytes.data() + 2 * i));
  }
  return out;
}

MacAddr EthernetView::dst() const {
  MacAddr m;
  std::copy(b_.begin(), b_.begin() + 6, m.bytes.begin());
  return m;
}

MacAddr EthernetView::src() const {
  MacAddr m;
  std::copy(b_.begin() + 6, b_.begin() + 12, m.bytes.begin());
  return m;
}

void EthernetView::set_dst(const MacAddr& m) {
  std::copy(m.bytes.begin(), m.bytes.end(), b_.begin());
}

void EthernetView::set_src(const MacAddr& m) {
  std::copy(m.bytes.begin(), m.bytes.end(), b_.begin() + 6);
}

void Ipv4View::UpdateChecksum() {
  set_checksum(0);
  set_checksum(InternetChecksum(b_.subspan(0, kSize)));
}

Ipv6Addr Ipv6View::dst() const {
  Ipv6Addr a;
  std::copy(b_.begin() + 24, b_.begin() + 40, a.bytes.begin());
  return a;
}

void Ipv6View::set_src(const Ipv6Addr& a) {
  std::copy(a.bytes.begin(), a.bytes.end(), b_.begin() + 8);
}

void Ipv6View::set_dst(const Ipv6Addr& a) {
  std::copy(a.bytes.begin(), a.bytes.end(), b_.begin() + 24);
}

Ipv6Addr SrhView::segment(size_t i) const {
  Ipv6Addr a;
  auto off = static_cast<std::ptrdiff_t>(kFixedSize + 16 * i);
  std::copy(b_.begin() + off, b_.begin() + off + 16, a.bytes.begin());
  return a;
}

void SrhView::set_segment(size_t i, const Ipv6Addr& a) {
  auto off = static_cast<std::ptrdiff_t>(kFixedSize + 16 * i);
  std::copy(a.bytes.begin(), a.bytes.end(), b_.begin() + off);
}

}  // namespace ipsa::net
