// Physical memory blocks of the disaggregated memory pool (paper §2.4).
//
// Each block stores `depth` entries of `width` bits. SRAM blocks back exact
// and LPM tables; TCAM blocks additionally store a per-entry mask and support
// priority-ordered ternary search within the block. A logical table of size
// W x D occupies ceil(W/w) x ceil(D/d) blocks (RMT-style virtualization).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace ipsa::mem {

enum class BlockKind { kSram, kTcam };

// An arbitrary-width bit string stored LSB-first in 64-bit words. Used for
// table keys, masks, and entry payloads throughout the memory subsystem.
//
// Widths up to kInlineBits (128 — every key and action-data width in the
// example designs) live in an inline two-word buffer; wider strings spill to
// a heap buffer whose capacity, in whole words, is kept across
// Resize/assignment, so a reused BitString never allocates in steady state.
// This is what makes the per-packet lookup path allocation-free.
//
// Invariant: every stored bit at or above bit_width() is zero. Every
// mutator keeps it, so equality, hashing and word reads never mask.
class BitString {
 public:
  static constexpr size_t kInlineWords = 2;
  static constexpr size_t kInlineBits = kInlineWords * 64;

  BitString() = default;
  explicit BitString(size_t bit_width) { Resize(bit_width); }
  BitString(size_t bit_width, uint64_t value);
  static BitString FromBytes(std::span<const uint8_t> bytes, size_t bit_width);

  BitString(const BitString& other) { *this = other; }
  // Inline for inline widths (two word stores: the per-packet action-data
  // copy); wider strings copy out of line, reusing capacity.
  BitString& operator=(const BitString& other) {
    if (!other.OnHeap()) {
      bits_ = other.bits_;
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
      return *this;
    }
    return CopyWide(other);
  }
  BitString(BitString&& other) noexcept;
  BitString& operator=(BitString&& other) noexcept;
  ~BitString() = default;

  size_t bit_width() const { return bits_; }
  size_t byte_size() const { return (bits_ + 7) / 8; }
  // The LSB-first byte view of the words (the byte order the wire codec
  // and the selector hash consume).
  std::span<const uint8_t> bytes() const {
    return {reinterpret_cast<const uint8_t*>(words()), byte_size()};
  }

  // Sets the width and zeroes every bit. Capacity is never released;
  // allocates only when growing past both the inline buffer and any heap
  // buffer acquired earlier.
  void Resize(size_t bit_width);

  bool GetBit(size_t i) const { return (words()[i / 64] >> (i % 64)) & 1; }
  // Bits at or beyond bit_width() are ignored.
  void SetBit(size_t i, bool v) {
    if (i >= bits_) return;
    const uint64_t mask = uint64_t{1} << (i % 64);
    if (v) {
      words()[i / 64] |= mask;
    } else {
      words()[i / 64] &= ~mask;
    }
  }

  // Reads up to 64 bits at [offset, offset+width): one word load, or two
  // when the range straddles a word boundary. Bits beyond bit_width() read
  // as zero.
  uint64_t GetBits(size_t offset, size_t width) const {
    if (width == 0 || offset >= bits_) return 0;
    const uint64_t* w = words();
    const size_t i = offset / 64;
    const size_t shift = offset % 64;
    uint64_t v = w[i] >> shift;
    if (shift != 0 && shift + width > 64 && i + 1 < WordCount()) {
      v |= w[i + 1] << (64 - shift);
    }
    return width >= 64 ? v : v & ((uint64_t{1} << width) - 1);
  }
  // Writes up to 64 bits at [offset, offset+width); bits beyond
  // bit_width() are dropped.
  void SetBits(size_t offset, size_t width, uint64_t value);

  // 64-bit word `i`; words beyond the width read as zero. Lets table
  // indexes hash and compare keys word-wise.
  uint64_t Word(size_t i) const { return i < WordCount() ? words()[i] : 0; }
  size_t WordCount() const { return (bits_ + 63) / 64; }
  const uint64_t* words() const { return OnHeap() ? heap_.get() : inline_; }

  // Low 64 bits as an integer (convenience for narrow values).
  uint64_t ToUint64() const { return Word(0); }

  // Returns a slice [offset, offset+width) as a new BitString.
  BitString Slice(size_t offset, size_t width) const;
  // In-place Slice: resizes `out` to `width` (reusing its capacity) and
  // copies the bits. `out` must not alias this string.
  void SliceInto(size_t offset, size_t width, BitString& out) const;

  // Copies `width` bits of `src` starting at `src_offset` into this string
  // at bit `at`, 64 bits at a time. Bits outside this string's width are
  // dropped. The in-place primitive behind key concatenation.
  void SetBitsFrom(size_t at, const BitString& src, size_t src_offset,
                   size_t width);

  // Appends `width` bits of `src` at a caller-held cursor and advances it.
  // With the destination pre-Resized to the final width, a sequence of
  // AppendBits calls concatenates parts without any allocation.
  void AppendBits(const BitString& src, size_t src_offset, size_t width,
                  size_t& cursor) {
    SetBitsFrom(cursor, src, src_offset, width);
    cursor += width;
  }

  // Sets the width to `bit_width` and the bits to the LSB-first words
  // `words[0 .. WordCount())`; bits at or beyond `bit_width` are dropped.
  // The one-copy store behind word-wise key building (inline for inline
  // widths); allocates only when growing, like Resize.
  void AssignWords(size_t bit_width, const uint64_t* words) {
    if (bit_width > kInlineBits) {
      AssignWideWords(bit_width, words);
      return;
    }
    bits_ = bit_width;
    for (size_t i = 0; i < WordCount(); ++i) inline_[i] = words[i];
    MaskTail();
  }

  // Zeroes every bit, keeping the width. No reallocation.
  void Zero();
  // In-place equivalent of `*this = FromBytes(src.bytes(), bit_width())`:
  // copies src's bits truncated/zero-extended to this width, no realloc.
  void Assign(const BitString& src);

  // True if (this & mask) == (other & mask) over the common byte width.
  bool MatchesUnderMask(const BitString& other, const BitString& mask) const;

  bool operator==(const BitString& other) const {
    return bits_ == other.bits_ &&
           std::memcmp(words(), other.words(), WordCount() * 8) == 0;
  }

  std::string ToHex() const;

 private:
  // The byte view above reads the words in memory order.
  static_assert(std::endian::native == std::endian::little,
                "BitString's byte view assumes a little-endian host");

  bool OnHeap() const { return bits_ > kInlineBits; }
  BitString& CopyWide(const BitString& other);
  void AssignWideWords(size_t bit_width, const uint64_t* words);
  uint64_t* words() { return OnHeap() ? heap_.get() : inline_; }
  // Sets the width, growing the heap buffer if needed; the words' contents
  // are unspecified afterwards.
  void SetWidth(size_t bit_width);
  // Clears the bits of the last word at or above bit_width().
  void MaskTail() {
    if (bits_ % 64 != 0) {
      words()[bits_ / 64] &= (uint64_t{1} << (bits_ % 64)) - 1;
    }
  }

  size_t bits_ = 0;
  size_t heap_words_ = 0;  // words usable in heap_ (0 = none allocated)
  uint64_t inline_[kInlineWords] = {};
  std::unique_ptr<uint64_t[]> heap_;
};

// One physical block.
class Block {
 public:
  Block(uint32_t id, BlockKind kind, uint32_t width_bits, uint32_t depth)
      : id_(id),
        kind_(kind),
        width_(width_bits),
        depth_(depth),
        rows_(depth, BitString(width_bits)),
        masks_(kind == BlockKind::kTcam
                   ? std::vector<BitString>(depth, BitString(width_bits))
                   : std::vector<BitString>{}),
        valid_(depth, false) {}

  uint32_t id() const { return id_; }
  BlockKind kind() const { return kind_; }
  uint32_t width_bits() const { return width_; }
  uint32_t depth() const { return depth_; }

  // Ownership bookkeeping (which logical table holds this block).
  bool allocated() const { return owner_ != kNoOwner; }
  uint32_t owner() const { return owner_; }
  void Allocate(uint32_t owner) { owner_ = owner; }
  void Release();

  Status WriteRow(uint32_t row, const BitString& value);
  Status WriteMask(uint32_t row, const BitString& mask);  // TCAM only
  Result<BitString> ReadRow(uint32_t row) const;
  // Row bits without touching the read statistics — for software-index
  // cache refreshes, which model index maintenance rather than a data-path
  // memory access.
  const BitString& PeekRow(uint32_t row) const { return rows_.at(row); }
  const BitString& mask(uint32_t row) const { return masks_.at(row); }
  bool row_valid(uint32_t row) const { return valid_.at(row); }
  void SetRowValid(uint32_t row, bool v) { valid_.at(row) = v; }

  // The atomic read counter deletes the implicit move operations the pool's
  // vector<Block> needs; restore them (blocks only move during pool setup,
  // never while packets are in flight).
  Block(Block&& other) noexcept
      : id_(other.id_),
        kind_(other.kind_),
        width_(other.width_),
        depth_(other.depth_),
        rows_(std::move(other.rows_)),
        masks_(std::move(other.masks_)),
        valid_(std::move(other.valid_)),
        written_rows_(other.written_rows_),
        owner_(other.owner_),
        reads_(other.reads_.load(std::memory_order_relaxed)),
        writes_(other.writes_) {}

  // Access statistics, for visibility and tests: row fetches charged to
  // this block and rows written. Reads are merged from concurrent packet
  // workers' lookup tallies, hence atomic.
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_; }
  void CountReads(uint64_t n) const {
    reads_.fetch_add(n, std::memory_order_relaxed);
  }

  static constexpr uint32_t kNoOwner = 0xFFFFFFFF;

 private:
  uint32_t id_;
  BlockKind kind_;
  uint32_t width_;
  uint32_t depth_;
  std::vector<BitString> rows_;
  std::vector<BitString> masks_;
  std::vector<bool> valid_;
  // Rows [0, written_rows_) may hold non-zero bits (row or mask writes
  // since the last Release); Release zeroes only those.
  uint32_t written_rows_ = 0;
  uint32_t owner_ = kNoOwner;
  mutable std::atomic<uint64_t> reads_{0};
  uint64_t writes_ = 0;
};

}  // namespace ipsa::mem
