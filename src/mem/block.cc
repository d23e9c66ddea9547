#include "mem/block.h"

#include <algorithm>
#include <bit>

#include "util/strings.h"

namespace ipsa::mem {

BitString::BitString(size_t bit_width, uint64_t value) : BitString(bit_width) {
  SetBits(0, bit_width < 64 ? bit_width : 64, value);
}

BitString& BitString::operator=(const BitString& other) {
  if (this == &other) return *this;
  Resize(other.bits_);
  std::memcpy(data(), other.data(), other.byte_size());
  return *this;
}

BitString::BitString(BitString&& other) noexcept
    : bits_(other.bits_),
      heap_capacity_(other.heap_capacity_),
      heap_(std::move(other.heap_)) {
  std::memcpy(inline_, other.inline_, kInlineBytes);
  other.bits_ = 0;
  other.heap_capacity_ = 0;
}

BitString& BitString::operator=(BitString&& other) noexcept {
  if (this == &other) return *this;
  bits_ = other.bits_;
  if (other.heap_) {
    heap_ = std::move(other.heap_);
    heap_capacity_ = other.heap_capacity_;
  }
  std::memcpy(inline_, other.inline_, kInlineBytes);
  other.bits_ = 0;
  other.heap_capacity_ = 0;
  other.heap_.reset();
  return *this;
}

void BitString::Resize(size_t bit_width) {
  size_t nbytes = (bit_width + 7) / 8;
  if (nbytes > kInlineBytes && nbytes > heap_capacity_) {
    heap_ = std::make_unique<uint8_t[]>(nbytes);
    heap_capacity_ = nbytes;
  }
  bits_ = bit_width;
  std::memset(data(), 0, nbytes);
}

BitString BitString::FromBytes(std::span<const uint8_t> bytes,
                               size_t bit_width) {
  BitString s(bit_width);
  size_t n = std::min(bytes.size(), s.byte_size());
  if (n > 0) std::memcpy(s.data(), bytes.data(), n);
  // Clear any bits beyond bit_width in the last byte.
  if (bit_width % 8 != 0 && s.byte_size() > 0) {
    s.data()[s.byte_size() - 1] &=
        static_cast<uint8_t>((1u << (bit_width % 8)) - 1);
  }
  return s;
}

uint64_t BitString::GetBits(size_t offset, size_t width) const {
  if (width == 0 || offset >= bits_) return 0;
  const uint8_t* p = data();
  size_t first = offset / 8;
  // Common case: the range lies inside the string and one 8-byte load
  // covers it (action parameters, LPM strides, narrow keys).
  if (offset % 8 + width <= 64 && first + 8 <= byte_size() &&
      std::endian::native == std::endian::little) {
    uint64_t w;
    std::memcpy(&w, p + first, 8);
    w >>= offset % 8;
    return width >= 64 ? w : w & ((uint64_t{1} << width) - 1);
  }
  // Otherwise accumulate the (at most 9) covered bytes LSB-first, then
  // shift the range into place. Bits beyond bit_width() read as zero.
  size_t last = std::min((offset + width - 1) / 8, byte_size() - 1);
  unsigned __int128 acc = 0;
  for (size_t b = last + 1; b > first; --b) {
    acc = (acc << 8) | p[b - 1];
  }
  uint64_t v = static_cast<uint64_t>(acc >> (offset % 8));
  return width >= 64 ? v : v & ((uint64_t{1} << width) - 1);
}

void BitString::SetBits(size_t offset, size_t width, uint64_t value) {
  if (width == 0 || offset >= bits_) return;
  width = std::min(width, bits_ - offset);  // bits beyond bit_width() ignored
  uint8_t* p = data();
  size_t first = offset / 8;
  size_t last = (offset + width - 1) / 8;
  size_t shift = offset % 8;
  unsigned __int128 mask = width >= 64
                               ? (unsigned __int128){~uint64_t{0}}
                               : (unsigned __int128){(uint64_t{1} << width) - 1};
  unsigned __int128 acc = 0;
  for (size_t b = last + 1; b > first; --b) {
    acc = (acc << 8) | p[b - 1];
  }
  acc = (acc & ~(mask << shift)) |
        (((unsigned __int128){value} & mask) << shift);
  for (size_t b = first; b <= last; ++b) {
    p[b] = static_cast<uint8_t>(acc & 0xFF);
    acc >>= 8;
  }
}

uint64_t BitString::Word(size_t i) const {
  size_t off = i * 8;
  size_t n = byte_size();
  if (off >= n) return 0;
  const uint8_t* p = data() + off;
  size_t m = std::min<size_t>(8, n - off);
  uint64_t w = 0;
  for (size_t b = 0; b < m; ++b) w |= uint64_t{p[b]} << (8 * b);
  return w;
}

BitString BitString::Slice(size_t offset, size_t width) const {
  BitString out;
  SliceInto(offset, width, out);
  return out;
}

void BitString::SliceInto(size_t offset, size_t width, BitString& out) const {
  out.Resize(width);
  for (size_t i = 0; i < width; i += 64) {
    size_t chunk = std::min<size_t>(64, width - i);
    out.SetBits(i, chunk, GetBits(offset + i, chunk));
  }
}

void BitString::SetBitsFrom(size_t at, const BitString& src, size_t src_offset,
                            size_t width) {
  for (size_t i = 0; i < width; i += 64) {
    size_t chunk = std::min<size_t>(64, width - i);
    SetBits(at + i, chunk, src.GetBits(src_offset + i, chunk));
  }
}

void BitString::AssignWords(size_t bit_width, const uint64_t* words) {
  size_t nbytes = (bit_width + 7) / 8;
  if (nbytes > kInlineBytes && nbytes > heap_capacity_) {
    heap_ = std::make_unique<uint8_t[]>(nbytes);
    heap_capacity_ = nbytes;
  }
  bits_ = bit_width;
  uint8_t* p = data();
  if (nbytes == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, words, nbytes);
  } else {
    for (size_t b = 0; b < nbytes; ++b) {
      p[b] = static_cast<uint8_t>(words[b / 8] >> (8 * (b % 8)));
    }
  }
}

void BitString::Zero() { std::memset(data(), 0, byte_size()); }

void BitString::Assign(const BitString& src) {
  size_t n = std::min(src.byte_size(), byte_size());
  uint8_t* p = data();
  if (n > 0) std::memcpy(p, src.data(), n);
  std::memset(p + n, 0, byte_size() - n);
  if (bits_ % 8 != 0 && byte_size() > 0) {
    p[byte_size() - 1] &= static_cast<uint8_t>((1u << (bits_ % 8)) - 1);
  }
}

bool BitString::MatchesUnderMask(const BitString& other,
                                 const BitString& mask) const {
  size_t n = std::min({byte_size(), other.byte_size(), mask.byte_size()});
  const uint8_t* a = data();
  const uint8_t* b = other.data();
  const uint8_t* m = mask.data();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t wa, wb, wm;
    std::memcpy(&wa, a + i, 8);
    std::memcpy(&wb, b + i, 8);
    std::memcpy(&wm, m + i, 8);
    if ((wa ^ wb) & wm) return false;
  }
  for (; i < n; ++i) {
    if (static_cast<uint8_t>(a[i] ^ b[i]) & m[i]) return false;
  }
  return true;
}

std::string BitString::ToHex() const {
  std::string out = "0x";
  const uint8_t* p = data();
  for (size_t i = byte_size(); i > 0; --i) {
    out += util::Format("%02x", p[i - 1]);
  }
  return out;
}

void Block::Release() {
  owner_ = kNoOwner;
  std::fill(valid_.begin(), valid_.end(), false);
  for (auto& row : rows_) row.Zero();
  for (auto& mask : masks_) mask.Zero();
}

Status Block::WriteRow(uint32_t row, const BitString& value) {
  if (row >= depth_) return OutOfRange("block row out of range");
  if (value.bit_width() > width_) {
    return InvalidArgument("row value wider than block");
  }
  rows_[row].Assign(value);
  valid_[row] = true;
  ++writes_;
  return OkStatus();
}

Status Block::WriteMask(uint32_t row, const BitString& mask) {
  if (kind_ != BlockKind::kTcam) {
    return FailedPrecondition("mask write on SRAM block");
  }
  if (row >= depth_) return OutOfRange("block row out of range");
  masks_[row].Assign(mask);
  ++writes_;
  return OkStatus();
}

Result<BitString> Block::ReadRow(uint32_t row) const {
  if (row >= depth_) return OutOfRange("block row out of range");
  CountRead();
  return rows_[row];
}

}  // namespace ipsa::mem
