#include "net/packet.h"

#include <algorithm>
#include <cstring>

namespace ipsa::net {

Packet::Packet(std::span<const uint8_t> bytes, size_t headroom)
    : buffer_(headroom + bytes.size()), offset_(headroom) {
  std::copy(bytes.begin(), bytes.end(), buffer_.begin() + offset_);
}

void Packet::Assign(std::span<const uint8_t> bytes, size_t headroom) {
  buffer_.resize(headroom + bytes.size());
  offset_ = headroom;
  std::copy(bytes.begin(), bytes.end(), buffer_.begin() + offset_);
}

Status Packet::InsertBytes(size_t at, size_t count) {
  if (at > size()) {
    return OutOfRange("insert offset beyond packet end");
  }
  if (count == 0) return OkStatus();
  if (offset_ >= count) {
    // Shift the leading `at` bytes forward into headroom.
    std::memmove(buffer_.data() + offset_ - count, buffer_.data() + offset_,
                 at);
    offset_ -= count;
  } else {
    // Not enough headroom: grow at the tail and shift the trailing bytes.
    size_t old_size = buffer_.size();
    buffer_.resize(old_size + count);
    std::memmove(buffer_.data() + offset_ + at + count,
                 buffer_.data() + offset_ + at, old_size - offset_ - at);
  }
  std::memset(buffer_.data() + offset_ + at, 0, count);
  return OkStatus();
}

Status Packet::RemoveBytes(size_t at, size_t count) {
  if (at + count > size()) {
    return OutOfRange("remove range beyond packet end");
  }
  if (count == 0) return OkStatus();
  // Shift the preceding bytes backwards; reclaims them as headroom.
  std::memmove(buffer_.data() + offset_ + count, buffer_.data() + offset_, at);
  offset_ += count;
  return OkStatus();
}

}  // namespace ipsa::net
