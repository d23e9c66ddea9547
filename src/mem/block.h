// Physical memory blocks of the disaggregated memory pool (paper §2.4).
//
// Each block stores `depth` entries of `width` bits. SRAM blocks back exact
// and LPM tables; TCAM blocks additionally store a per-entry mask and support
// priority-ordered ternary search within the block. A logical table of size
// W x D occupies ceil(W/w) x ceil(D/d) blocks (RMT-style virtualization).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "util/status.h"

namespace ipsa::mem {

enum class BlockKind { kSram, kTcam };

// An arbitrary-width bit string stored LSB-first in bytes. Used for table
// keys, masks, and entry payloads throughout the memory subsystem.
//
// Widths up to kInlineBits (128 — every key and action-data width in the
// example designs) live in an inline buffer; wider strings spill to a heap
// buffer whose capacity is kept across Resize/assignment, so a reused
// BitString never allocates in steady state. This is what makes the
// per-packet lookup path allocation-free.
class BitString {
 public:
  static constexpr size_t kInlineBytes = 16;
  static constexpr size_t kInlineBits = kInlineBytes * 8;

  BitString() = default;
  explicit BitString(size_t bit_width) { Resize(bit_width); }
  BitString(size_t bit_width, uint64_t value);
  static BitString FromBytes(std::span<const uint8_t> bytes, size_t bit_width);

  BitString(const BitString& other) { *this = other; }
  BitString& operator=(const BitString& other);
  BitString(BitString&& other) noexcept;
  BitString& operator=(BitString&& other) noexcept;
  ~BitString() = default;

  size_t bit_width() const { return bits_; }
  size_t byte_size() const { return (bits_ + 7) / 8; }
  std::span<const uint8_t> bytes() const { return {data(), byte_size()}; }
  std::span<uint8_t> bytes() { return {data(), byte_size()}; }

  // Sets the width and zeroes every bit. Capacity is never released;
  // allocates only when growing past both the inline buffer and any heap
  // buffer acquired earlier.
  void Resize(size_t bit_width);

  bool GetBit(size_t i) const { return (data()[i / 8] >> (i % 8)) & 1; }
  void SetBit(size_t i, bool v) {
    uint8_t mask = static_cast<uint8_t>(1u << (i % 8));
    if (v) {
      data()[i / 8] |= mask;
    } else {
      data()[i / 8] &= static_cast<uint8_t>(~mask);
    }
  }

  // Reads/writes up to 64 bits at [offset, offset+width).
  uint64_t GetBits(size_t offset, size_t width) const;
  void SetBits(size_t offset, size_t width, uint64_t value);

  // 64-bit word `i` of the LSB-first byte stream; bits beyond bit_width()
  // read as zero. Lets table indexes compare keys word-wise.
  uint64_t Word(size_t i) const;
  size_t WordCount() const { return (byte_size() + 7) / 8; }

  // Low 64 bits as an integer (convenience for narrow values).
  uint64_t ToUint64() const { return GetBits(0, bits_ < 64 ? bits_ : 64); }

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
  // `words[0 .. WordCount())`, whose bits at or beyond `bit_width` must be
  // zero. The one-copy store behind word-wise key building; allocates only
  // when growing, like Resize.
  void AssignWords(size_t bit_width, const uint64_t* words);

  // Zeroes every bit, keeping the width. No reallocation.
  void Zero();
  // In-place equivalent of `*this = FromBytes(src.bytes(), bit_width())`:
  // copies src's bytes truncated/zero-extended to this width, no realloc.
  void Assign(const BitString& src);

  // True if (this & mask) == (other & mask) over the common width.
  bool MatchesUnderMask(const BitString& other, const BitString& mask) const;

  bool operator==(const BitString& other) const {
    return bits_ == other.bits_ &&
           std::memcmp(data(), other.data(), byte_size()) == 0;
  }

  std::string ToHex() const;

 private:
  uint8_t* data() {
    return byte_size() <= kInlineBytes ? inline_ : heap_.get();
  }
  const uint8_t* data() const {
    return byte_size() <= kInlineBytes ? inline_ : heap_.get();
  }

  size_t bits_ = 0;
  size_t heap_capacity_ = 0;  // bytes usable in heap_ (0 = none allocated)
  uint8_t inline_[kInlineBytes] = {};
  std::unique_ptr<uint8_t[]> heap_;
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
        owner_(other.owner_),
        reads_(other.reads_.load(std::memory_order_relaxed)),
        writes_(other.writes_) {}

  // Access statistics feed the hardware throughput model. Reads are counted
  // from concurrent lookup workers, hence atomic.
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_; }
  void CountRead() const { reads_.fetch_add(1, std::memory_order_relaxed); }

  static constexpr uint32_t kNoOwner = 0xFFFFFFFF;

 private:
  uint32_t id_;
  BlockKind kind_;
  uint32_t width_;
  uint32_t depth_;
  std::vector<BitString> rows_;
  std::vector<BitString> masks_;
  std::vector<bool> valid_;
  uint32_t owner_ = kNoOwner;
  mutable std::atomic<uint64_t> reads_{0};
  uint64_t writes_ = 0;
};

}  // namespace ipsa::mem
