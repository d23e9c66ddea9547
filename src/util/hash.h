// Deterministic hash functions used by hash/selector tables (ECMP member
// selection), exact-match tables and string-keyed maps. Seeded variants let
// a table pick an independent hash family member.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace ipsa::util {

// FNV-1a, 64-bit. Stable across platforms; hashes string keys.
uint64_t Fnv1a64(std::span<const uint8_t> data, uint64_t seed = 0);
uint64_t Fnv1a64(std::string_view s, uint64_t seed = 0);

// CRC-32 (IEEE 802.3 polynomial, reflected). ECMP-style flow hashing in real
// switch ASICs is CRC-based, so the selector tables use this.
uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed = 0);

// A 64->64 bit finalizer (splitmix64) for integer key mixing. Inline: the
// exact-match tables hash every lookup key's words with it.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Transparent (heterogeneous) string hasher for unordered containers keyed
// by std::string: lets hot paths probe with a string_view and never
// materialize a temporary std::string. Pair with std::equal_to<>.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return static_cast<size_t>(Fnv1a64(s));
  }
};

}  // namespace ipsa::util
