#include "mem/block.h"

#include <algorithm>

#include "util/strings.h"

namespace ipsa::mem {

namespace {

constexpr size_t WordsFor(size_t bits) { return (bits + 63) / 64; }

}  // namespace

BitString::BitString(size_t bit_width, uint64_t value) : BitString(bit_width) {
  SetBits(0, bit_width < 64 ? bit_width : 64, value);
}

BitString& BitString::CopyWide(const BitString& other) {
  if (this == &other) return *this;
  SetWidth(other.bits_);
  std::memcpy(words(), other.words(), WordCount() * 8);
  return *this;
}

BitString::BitString(BitString&& other) noexcept
    : bits_(other.bits_),
      heap_words_(other.heap_words_),
      heap_(std::move(other.heap_)) {
  std::memcpy(inline_, other.inline_, sizeof(inline_));
  other.bits_ = 0;
  other.heap_words_ = 0;
}

BitString& BitString::operator=(BitString&& other) noexcept {
  if (this == &other) return *this;
  bits_ = other.bits_;
  if (other.heap_) {
    heap_ = std::move(other.heap_);
    heap_words_ = other.heap_words_;
  }
  std::memcpy(inline_, other.inline_, sizeof(inline_));
  other.bits_ = 0;
  other.heap_words_ = 0;
  other.heap_.reset();
  return *this;
}

void BitString::SetWidth(size_t bit_width) {
  const size_t nwords = WordsFor(bit_width);
  if (nwords > kInlineWords && nwords > heap_words_) {
    heap_ = std::make_unique<uint64_t[]>(nwords);
    heap_words_ = nwords;
  }
  bits_ = bit_width;
}

void BitString::Resize(size_t bit_width) {
  SetWidth(bit_width);
  Zero();
}

BitString BitString::FromBytes(std::span<const uint8_t> bytes,
                               size_t bit_width) {
  BitString s(bit_width);
  size_t n = std::min(bytes.size(), s.byte_size());
  if (n > 0) std::memcpy(s.words(), bytes.data(), n);
  s.MaskTail();
  return s;
}

void BitString::SetBits(size_t offset, size_t width, uint64_t value) {
  if (width == 0 || offset >= bits_) return;
  width = std::min({width, size_t{64}, bits_ - offset});
  if (width < 64) value &= (uint64_t{1} << width) - 1;
  uint64_t* w = words();
  const size_t i = offset / 64;
  const size_t shift = offset % 64;
  const uint64_t mask =
      width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  w[i] = (w[i] & ~(mask << shift)) | (value << shift);
  if (shift != 0 && shift + width > 64) {
    // The range straddles into word i + 1, which exists because the range
    // ends inside the width.
    const size_t lo = 64 - shift;
    w[i + 1] = (w[i + 1] & ~(mask >> lo)) | (value >> lo);
  }
}

BitString BitString::Slice(size_t offset, size_t width) const {
  BitString out;
  SliceInto(offset, width, out);
  return out;
}

void BitString::SliceInto(size_t offset, size_t width, BitString& out) const {
  out.SetWidth(width);
  uint64_t* w = out.words();
  for (size_t i = 0; i < out.WordCount(); ++i) {
    w[i] = GetBits(offset + i * 64, std::min<size_t>(64, width - i * 64));
  }
}

void BitString::SetBitsFrom(size_t at, const BitString& src, size_t src_offset,
                            size_t width) {
  for (size_t i = 0; i < width; i += 64) {
    size_t chunk = std::min<size_t>(64, width - i);
    SetBits(at + i, chunk, src.GetBits(src_offset + i, chunk));
  }
}

void BitString::AssignWideWords(size_t bit_width, const uint64_t* src) {
  SetWidth(bit_width);
  std::memcpy(words(), src, WordCount() * 8);
  MaskTail();
}

void BitString::Zero() { std::memset(words(), 0, WordCount() * 8); }

void BitString::Assign(const BitString& src) {
  const size_t n = std::min(src.WordCount(), WordCount());
  uint64_t* w = words();
  if (n > 0) std::memcpy(w, src.words(), n * 8);
  std::memset(w + n, 0, (WordCount() - n) * 8);
  MaskTail();
}

bool BitString::MatchesUnderMask(const BitString& other,
                                 const BitString& mask) const {
  // Whole bytes of the narrowest operand, as the byte-wise definition
  // compares them.
  const size_t nbits =
      std::min({byte_size(), other.byte_size(), mask.byte_size()}) * 8;
  const uint64_t* a = words();
  const uint64_t* b = other.words();
  const uint64_t* m = mask.words();
  for (size_t i = 0; i * 64 < nbits; ++i) {
    uint64_t diff = (a[i] ^ b[i]) & m[i];
    if (nbits - i * 64 < 64) diff &= (uint64_t{1} << (nbits - i * 64)) - 1;
    if (diff != 0) return false;
  }
  return true;
}

std::string BitString::ToHex() const {
  std::string out = "0x";
  std::span<const uint8_t> p = bytes();
  for (size_t i = p.size(); i > 0; --i) {
    out += util::Format("%02x", p[i - 1]);
  }
  return out;
}

void Block::Release() {
  owner_ = kNoOwner;
  std::fill(valid_.begin(), valid_.end(), false);
  // Rows past written_rows_ were never written, so they are still zero.
  for (uint32_t r = 0; r < written_rows_; ++r) {
    rows_[r].Zero();
    if (!masks_.empty()) masks_[r].Zero();
  }
  written_rows_ = 0;
}

Status Block::WriteRow(uint32_t row, const BitString& value) {
  if (row >= depth_) return OutOfRange("block row out of range");
  if (value.bit_width() > width_) {
    return InvalidArgument("row value wider than block");
  }
  rows_[row].Assign(value);
  written_rows_ = std::max(written_rows_, row + 1);
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
  written_rows_ = std::max(written_rows_, row + 1);
  ++writes_;
  return OkStatus();
}

Result<BitString> Block::ReadRow(uint32_t row) const {
  if (row >= depth_) return OutOfRange("block row out of range");
  CountReads(1);
  return rows_[row];
}

}  // namespace ipsa::mem
