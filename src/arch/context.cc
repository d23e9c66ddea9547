#include "arch/context.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace ipsa::arch {

Status RegisterFile::Create(const std::string& name, size_t size) {
  auto [it, inserted] = arrays_.emplace(name, std::vector<uint64_t>(size, 0));
  (void)it;
  if (!inserted) {
    return AlreadyExists("register array '" + name + "' already exists");
  }
  return OkStatus();
}

Status RegisterFile::Destroy(const std::string& name) {
  if (arrays_.erase(name) == 0) {
    return NotFound("register array '" + name + "' does not exist");
  }
  return OkStatus();
}

Result<uint64_t> RegisterFile::Read(std::string_view name,
                                    size_t index) const {
  auto it = arrays_.find(name);
  if (it == arrays_.end()) {
    return NotFound("register array '" + std::string(name) + "'");
  }
  if (index >= it->second.size()) {
    return OutOfRange("register index out of range");
  }
  return it->second[index];
}

Status RegisterFile::Write(std::string_view name, size_t index,
                           uint64_t value) {
  auto it = arrays_.find(name);
  if (it == arrays_.end()) {
    return NotFound("register array '" + std::string(name) + "'");
  }
  if (index >= it->second.size()) {
    return OutOfRange("register index out of range");
  }
  it->second[index] = value;
  return OkStatus();
}

uint64_t ReadWire64Bytes(std::span<const uint8_t> bytes, size_t bit_offset,
                         size_t width) {
  if (width == 0) return 0;
  // Load the covered bytes (at most 9 for width <= 64) big-endian, then
  // shift the field's trailing bits away.
  size_t first = bit_offset / 8;
  size_t last = (bit_offset + width - 1) / 8;
  unsigned __int128 acc = 0;
  for (size_t b = first; b <= last; ++b) {
    acc = (acc << 8) | bytes[b];
  }
  size_t tail = (last + 1) * 8 - (bit_offset + width);
  uint64_t v = static_cast<uint64_t>(acc >> tail);
  return width >= 64 ? v : v & ((uint64_t{1} << width) - 1);
}

void WriteWire64Bytes(std::span<uint8_t> bytes, size_t bit_offset,
                      size_t width, uint64_t value) {
  if (width == 0) return;
  size_t first = bit_offset / 8;
  size_t last = (bit_offset + width - 1) / 8;
  size_t tail = (last + 1) * 8 - (bit_offset + width);
  unsigned __int128 mask = width >= 64
                               ? (unsigned __int128){~uint64_t{0}}
                               : (unsigned __int128){(uint64_t{1} << width) - 1};
  unsigned __int128 acc = 0;
  for (size_t b = first; b <= last; ++b) {
    acc = (acc << 8) | bytes[b];
  }
  acc = (acc & ~(mask << tail)) |
        (((unsigned __int128){value} & mask) << tail);
  for (size_t b = last + 1; b > first; --b) {
    bytes[b - 1] = static_cast<uint8_t>(acc & 0xFF);
    acc >>= 8;
  }
}

mem::BitString ReadWireBits(std::span<const uint8_t> bytes, size_t bit_offset,
                            size_t width) {
  mem::BitString out(width);
  // Wire bit i (MSB-first within the field) maps to value bit width-1-i.
  // Chunked 64-bit reads: wire bits [i, i+c) land at value bits
  // [width-i-c, width-i), earliest wire bit most significant.
  for (size_t i = 0; i < width; i += 64) {
    size_t c = std::min<size_t>(64, width - i);
    out.SetBits(width - i - c, c, ReadWire64(bytes, bit_offset + i, c));
  }
  return out;
}

void WriteWireBits(std::span<uint8_t> bytes, size_t bit_offset, size_t width,
                   const mem::BitString& value) {
  // Value bits beyond value.bit_width() write as zero (GetBits reads them
  // as zero), matching the bit-by-bit semantics.
  for (size_t i = 0; i < width; i += 64) {
    size_t c = std::min<size_t>(64, width - i);
    WriteWire64(bytes, bit_offset + i, c, value.GetBits(width - i - c, c));
  }
}

Result<const HeaderInstance*> PacketContext::ValidInstance(
    std::string_view name) const {
  const HeaderInstance* h = phv_.Find(name);
  if (h == nullptr || !h->valid) {
    return FailedPrecondition("header instance '" + std::string(name) +
                              "' is not valid in this packet");
  }
  return h;
}

Result<mem::BitString> PacketContext::ReadField(const FieldRef& ref) const {
  if (ref.space == FieldRef::Space::kMeta) {
    return metadata_.Read(ref.field);
  }
  IPSA_ASSIGN_OR_RETURN(const HeaderInstance* h, ValidInstance(ref.instance));
  IPSA_ASSIGN_OR_RETURN(HeaderTypeDef::FieldSpan span,
                        h->def->FieldSpanOf(ref.field));
  return ReadWireBits(packet_->bytes(),
                      static_cast<size_t>(h->byte_offset) * 8 + span.offset_bits,
                      span.width_bits);
}

Status PacketContext::WriteField(const FieldRef& ref,
                                 const mem::BitString& value) {
  if (ref.space == FieldRef::Space::kMeta) {
    return metadata_.Write(ref.field, value);
  }
  IPSA_ASSIGN_OR_RETURN(const HeaderInstance* h, ValidInstance(ref.instance));
  IPSA_ASSIGN_OR_RETURN(HeaderTypeDef::FieldSpan span,
                        h->def->FieldSpanOf(ref.field));
  WriteWireBits(packet_->bytes(),
                static_cast<size_t>(h->byte_offset) * 8 + span.offset_bits,
                span.width_bits, value);
  return OkStatus();
}

Result<mem::BitString> PacketContext::ReadRaw(std::string_view instance,
                                              uint32_t bit_offset,
                                              uint32_t width) const {
  IPSA_ASSIGN_OR_RETURN(const HeaderInstance* h, ValidInstance(instance));
  return ReadRaw(*h, bit_offset, width);
}

Status PacketContext::WriteRaw(std::string_view instance, uint32_t bit_offset,
                               uint32_t width, const mem::BitString& value) {
  IPSA_ASSIGN_OR_RETURN(const HeaderInstance* h, ValidInstance(instance));
  return WriteRaw(*h, bit_offset, width, value);
}

Result<mem::BitString> PacketContext::ReadRaw(const HeaderInstance& h,
                                              uint32_t bit_offset,
                                              uint32_t width) const {
  size_t abs = static_cast<size_t>(h.byte_offset) * 8 + bit_offset;
  if (abs + width > packet_->size() * 8) {
    return OutOfRange("raw read beyond packet end");
  }
  return ReadWireBits(packet_->bytes(), abs, width);
}

Status PacketContext::WriteRaw(const HeaderInstance& h, uint32_t bit_offset,
                               uint32_t width, const mem::BitString& value) {
  size_t abs = static_cast<size_t>(h.byte_offset) * 8 + bit_offset;
  if (abs + width > packet_->size() * 8) {
    return OutOfRange("raw write beyond packet end");
  }
  WriteWireBits(packet_->bytes(), abs, width, value);
  return OkStatus();
}

}  // namespace ipsa::arch
