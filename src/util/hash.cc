#include "util/hash.h"

#include <array>

namespace ipsa::util {
namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  return table;
}

}  // namespace

uint64_t Fnv1a64(std::span<const uint8_t> data, uint64_t seed) {
  uint64_t h = 14695981039346656037ull ^ Mix64(seed);
  for (uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Fnv1a64(std::string_view s, uint64_t seed) {
  return Fnv1a64(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()),
                               s.size()),
      seed);
}

uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto& table = CrcTable();
  for (uint8_t b : data) {
    c = table[(c ^ b) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ipsa::util
