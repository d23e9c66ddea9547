// Internet checksum (RFC 1071) used by the IPv4 header and the
// update_checksum action primitive.
#pragma once

#include <cstdint>
#include <span>

namespace ipsa::net {

// One's-complement sum of 16-bit words, folded and complemented.
uint16_t InternetChecksum(std::span<const uint8_t> data);

}  // namespace ipsa::net
