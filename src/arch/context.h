// Per-packet processing context: the packet, its PHV, metadata, and the
// verdict the pipeline accumulates. Field reads/writes translate between
// wire order (big-endian bit ranges) and BitString values.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/header_types.h"
#include "arch/phv.h"
#include "mem/block.h"
#include "net/packet.h"
#include "table/table.h"
#include "util/hash.h"
#include "util/status.h"

namespace ipsa::arch {

// Stateful register arrays shared by packets (e.g. the C3 flow-probe
// counters). Owned by the switch, referenced from action programs.
class RegisterFile {
 public:
  Status Create(const std::string& name, size_t size);
  Status Destroy(const std::string& name);
  bool Has(std::string_view name) const {
    return arrays_.find(name) != arrays_.end();
  }
  Result<uint64_t> Read(std::string_view name, size_t index) const;
  Status Write(std::string_view name, size_t index, uint64_t value);

 private:
  // Transparent hashing: hot-path Read/Write probe with the string_view
  // register name, no per-access std::string allocation.
  std::unordered_map<std::string, std::vector<uint64_t>, util::StringHash,
                     std::equal_to<>>
      arrays_;
};

// A reference to a header field or metadata field.
struct FieldRef {
  enum class Space { kHeader, kMeta };
  Space space = Space::kMeta;
  std::string instance;  // header instance (kHeader only)
  std::string field;     // field name / metadata name

  static FieldRef Header(std::string instance, std::string field) {
    return {Space::kHeader, std::move(instance), std::move(field)};
  }
  static FieldRef Meta(std::string field) {
    return {Space::kMeta, "", std::move(field)};
  }
  std::string ToString() const {
    return space == Space::kHeader ? instance + "." + field : "meta." + field;
  }
  bool operator==(const FieldRef&) const = default;
};

class PacketContext {
 public:
  PacketContext(net::Packet& packet, const HeaderRegistry& registry,
                Metadata metadata)
      : packet_(&packet), registry_(&registry), metadata_(std::move(metadata)) {}

  // Unbound scratch context: call Rebind() before use. Lets batch executors
  // reuse one context (and its metadata/PHV buffers) across packets with no
  // per-packet allocation.
  PacketContext() = default;

  // Points this context at a new packet and resets per-packet state (PHV,
  // cycles). Metadata values are NOT touched — refresh them separately, e.g.
  // metadata().CopyValuesFrom(proto).
  void Rebind(net::Packet& packet, const HeaderRegistry& registry) {
    packet_ = &packet;
    registry_ = &registry;
    phv_.Clear();
    cycles_ = 0;
  }

  net::Packet& packet() { return *packet_; }
  const net::Packet& packet() const { return *packet_; }
  Phv& phv() { return phv_; }
  const Phv& phv() const { return phv_; }
  Metadata& metadata() { return metadata_; }
  const Metadata& metadata() const { return metadata_; }
  const HeaderRegistry& registry() const { return *registry_; }

  bool dropped() const {
    int s = metadata_.drop_slot();
    return s != Metadata::kInvalidSlot && metadata_.SlotReadUint(s) != 0;
  }
  bool marked() const {
    int s = metadata_.mark_slot();
    return s != Metadata::kInvalidSlot && metadata_.SlotReadUint(s) != 0;
  }
  uint32_t egress_spec() const {
    int s = metadata_.egress_spec_slot();
    return s == Metadata::kInvalidSlot
               ? 0
               : static_cast<uint32_t>(metadata_.SlotReadUint(s));
  }

  // Reads/writes a named field (header or metadata) as a BitString whose
  // numeric value equals the big-endian field value on the wire.
  Result<mem::BitString> ReadField(const FieldRef& ref) const;
  Status WriteField(const FieldRef& ref, const mem::BitString& value);

  // Raw bit-range access within a header instance, for dynamic offsets such
  // as SRH segment[i] (offset beyond the fixed fields).
  Result<mem::BitString> ReadRaw(std::string_view instance,
                                 uint32_t bit_offset, uint32_t width) const;
  Status WriteRaw(std::string_view instance, uint32_t bit_offset,
                  uint32_t width, const mem::BitString& value);
  // The same on an instance the caller already resolved (compiled stages).
  Result<mem::BitString> ReadRaw(const HeaderInstance& h, uint32_t bit_offset,
                                 uint32_t width) const;
  Status WriteRaw(const HeaderInstance& h, uint32_t bit_offset,
                  uint32_t width, const mem::BitString& value);

  // Cycle accounting for the hardware model.
  void ChargeCycles(uint64_t n) { cycles_ += n; }
  uint64_t cycles() const { return cycles_; }

  // Reusable lookup key + result. Scratch contexts are per-worker, so one
  // packet's lookups reuse the previous packet's buffers and the match
  // path allocates nothing in steady state.
  table::LookupScratch& lookup_scratch() { return lookup_scratch_; }

 private:
  Result<const HeaderInstance*> ValidInstance(std::string_view name) const;

  net::Packet* packet_ = nullptr;
  const HeaderRegistry* registry_ = nullptr;
  Phv phv_;
  Metadata metadata_;
  uint64_t cycles_ = 0;
  table::LookupScratch lookup_scratch_;
};

// Wire <-> value conversion helpers (MSB-first bit ranges).
mem::BitString ReadWireBits(std::span<const uint8_t> bytes, size_t bit_offset,
                            size_t width);
void WriteWireBits(std::span<uint8_t> bytes, size_t bit_offset, size_t width,
                   const mem::BitString& value);

// Fast scalar variants for ranges up to 64 bits: the earliest wire bit is the
// most significant bit of the returned/written value. Byte-aligned fields of
// any width <= 64 take the chunked load path with no per-bit work.
uint64_t ReadWire64(std::span<const uint8_t> bytes, size_t bit_offset,
                    size_t width);
void WriteWire64(std::span<uint8_t> bytes, size_t bit_offset, size_t width,
                 uint64_t value);

}  // namespace ipsa::arch
