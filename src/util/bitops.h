// Big-endian loads and stores for the fixed-offset fields of the concrete
// header views (src/net/headers.h).
#pragma once

#include <cstdint>

namespace ipsa::util {

uint16_t LoadBe16(const uint8_t* p);
uint32_t LoadBe32(const uint8_t* p);
void StoreBe16(uint8_t* p, uint16_t v);
void StoreBe32(uint8_t* p, uint32_t v);

}  // namespace ipsa::util
