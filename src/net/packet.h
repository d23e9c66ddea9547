// Packet buffer with headroom, supporting header push/pop in place.
//
// The buffer keeps `headroom` spare bytes in front of the packet data so
// inserting a header (e.g. SRv6 pushing an SRH) is a bounded memmove of the
// preceding headers rather than a reallocation. This mirrors how the paper's
// ipbm Communication Module hands contiguous frames to the pipeline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace ipsa::net {

class Packet {
 public:
  static constexpr size_t kDefaultHeadroom = 128;

  Packet() : Packet(std::span<const uint8_t>{}) {}
  explicit Packet(std::span<const uint8_t> bytes,
                  size_t headroom = kDefaultHeadroom);

  // Refills this packet in place with new contents, reusing the buffer's
  // capacity. A recycled packet (e.g. from a daemon TX->RX buffer pool)
  // reaches steady state with no per-packet allocation.
  void Assign(std::span<const uint8_t> bytes,
              size_t headroom = kDefaultHeadroom);

  size_t size() const { return buffer_.size() - offset_; }
  bool empty() const { return size() == 0; }
  size_t headroom() const { return offset_; }

  std::span<uint8_t> bytes() {
    return std::span<uint8_t>(buffer_.data() + offset_, size());
  }
  std::span<const uint8_t> bytes() const {
    return std::span<const uint8_t>(buffer_.data() + offset_, size());
  }

  uint8_t* data() { return buffer_.data() + offset_; }
  const uint8_t* data() const { return buffer_.data() + offset_; }

  // Inserts `count` zero bytes at byte offset `at` (0 = front). Headers
  // before `at` are shifted into headroom when available, otherwise the
  // trailing bytes are shifted back (grows the buffer).
  Status InsertBytes(size_t at, size_t count);

  // Removes `count` bytes at offset `at`, closing the gap by shifting the
  // preceding headers backwards (cheap for front-of-packet headers).
  Status RemoveBytes(size_t at, size_t count);

  bool operator==(const Packet& other) const {
    auto a = bytes();
    auto b = other.bytes();
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::vector<uint8_t> buffer_;
  size_t offset_;  // start of packet data within buffer_
};

}  // namespace ipsa::net
