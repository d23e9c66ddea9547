// Parsed-header vector (PHV) and metadata.
//
// The PHV records which header instances have been located in the packet,
// at what byte offset and size. In IPSA it is *accumulated* across stages —
// a stage parses only what it needs and later stages reuse the result
// (paper §2.1, "parsed headers are passed to later pipeline stages to avoid
// unnecessary re-parsing"). In PISA the front parser fills it completely
// before the pipeline. Instances are keyed by their type's HeaderId
// (instance name == type name), so the packet path finds them with an
// integer compare; the name-based lookups serve the interpreter and tests.
//
// Metadata is a flat array of slots: user metadata comes from the rP4
// <struct_def>s, standard metadata (ingress_port, egress_spec, drop, mark,
// ...) is predeclared. A field of 64 bits or fewer lives in one uint64_t
// word (reads and writes are plain loads and stores); only wider fields
// keep a BitString.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/header_types.h"
#include "mem/block.h"
#include "util/hash.h"
#include "util/status.h"

namespace ipsa::arch {

struct HeaderInstance {
  HeaderId id = kNoHeader;  // the type's id in the packet's registry
  uint32_t byte_offset = 0;
  uint32_t size_bytes = 0;
  bool valid = false;
  // The registered type definition. Never null for an instance in a PHV;
  // valid for the lifetime of the packet: registry mutations happen between
  // packets and bump the config epoch, and the PHV is per-packet state.
  const HeaderTypeDef* def = nullptr;

  const std::string& name() const { return def->name(); }
};

class Phv {
 public:
  void Clear() { instances_.clear(); }

  // Appends a parsed instance (parse order == wire order).
  void Add(const HeaderInstance& instance) { instances_.push_back(instance); }

  const HeaderInstance* Find(HeaderId id) const {
    for (const HeaderInstance& h : instances_) {
      if (h.id == id) return &h;
    }
    return nullptr;
  }
  bool IsValid(HeaderId id) const {
    const HeaderInstance* h = Find(id);
    return h != nullptr && h->valid;
  }
  // Name-based lookups (interpreter, tests).
  const HeaderInstance* Find(std::string_view name) const;
  bool IsValid(std::string_view name) const {
    const HeaderInstance* h = Find(name);
    return h != nullptr && h->valid;
  }

  const std::vector<HeaderInstance>& instances() const { return instances_; }

  // Last instance in wire order (where parsing resumes from).
  const HeaderInstance* Last() const {
    return instances_.empty() ? nullptr : &instances_.back();
  }

  // Shifts the byte offsets of every instance at or beyond `from_offset` by
  // `delta` (after header insertion/removal in the packet).
  void ShiftOffsets(uint32_t from_offset, int32_t delta);

  // Drops an instance (header removed from the packet). The caller has
  // already found it, so removal cannot fail.
  void RemoveInstance(const HeaderInstance* instance) {
    instances_.erase(instances_.begin() + (instance - instances_.data()));
  }

 private:
  std::vector<HeaderInstance> instances_;
};

// Named metadata fields with declared widths.
//
// Values live in flat slots; the name index maps to a slot. Slots are
// append-only, so a slot resolved once (e.g. by the compiled stage) stays
// valid as long as no field is declared out from under it — callers guard
// with the device config epoch. All name-based accessors probe the index
// transparently (no std::string temporaries).
class Metadata {
 public:
  static constexpr int kInvalidSlot = -1;

  // Declares a field (idempotent if same width).
  Status Declare(const std::string& name, uint32_t width_bits);
  bool Has(std::string_view name) const {
    return index_.find(name) != index_.end();
  }
  uint32_t WidthOf(std::string_view name) const;

  Result<mem::BitString> Read(std::string_view name) const;
  Status Write(std::string_view name, const mem::BitString& value);
  // Convenience for narrow fields.
  uint64_t ReadUint(std::string_view name) const;
  Status WriteUint(std::string_view name, uint64_t value);

  // Slot interface: resolve the name once, then access with no hashing.
  int SlotOf(std::string_view name) const {
    auto it = index_.find(name);
    return it == index_.end() ? kInvalidSlot : it->second;
  }
  // The verdict fields every pipeline consults per packet, cached at
  // declaration time so dropped()/marked()/egress_spec() never hash.
  int drop_slot() const { return drop_slot_; }
  int mark_slot() const { return mark_slot_; }
  int egress_spec_slot() const { return egress_spec_slot_; }
  size_t slot_count() const { return slots_.size(); }

  // Narrow slots (width <= 64): the value is the word itself, kept masked
  // to the width. Callers that know the width at compile time use these.
  uint64_t NarrowRead(int slot) const {
    return words_[static_cast<size_t>(slot)];
  }
  void NarrowWrite(int slot, uint64_t value) {
    words_[static_cast<size_t>(slot)] = value & Info(slot).mask;
  }

  // Any-width access. Reads of a wide slot as an integer return its low 64
  // bits; integer writes zero-extend.
  mem::BitString SlotRead(int slot) const;
  void SlotWrite(int slot, const mem::BitString& value);
  uint64_t SlotReadUint(int slot) const {
    const SlotInfo& info = Info(slot);
    return info.wide < 0 ? words_[static_cast<size_t>(slot)]
                         : wide_[static_cast<size_t>(info.wide)].ToUint64();
  }
  void SlotWriteUint(int slot, uint64_t value);
  // The BitString of a slot wider than 64 bits (null for narrow slots).
  const mem::BitString* WideValue(int slot) const {
    const SlotInfo& info = Info(slot);
    return info.wide < 0 ? nullptr : &wide_[static_cast<size_t>(info.wide)];
  }

  void Reset();  // zeroes all fields in place, keeps declarations

  // Copies every slot value from `other` in place (no allocation). Both
  // objects must have been built by the same declaration sequence.
  void CopyValuesFrom(const Metadata& other);

  // The standard metadata every packet context carries.
  static Metadata Standard();

  // Sorted, for deterministic enumeration.
  std::vector<std::string> FieldNames() const;

 private:
  struct SlotInfo {
    uint32_t width = 0;
    int32_t wide = -1;  // index into wide_ for fields over 64 bits
    uint64_t mask = 0;  // value mask of a narrow field
  };
  const SlotInfo& Info(int slot) const {
    return slots_[static_cast<size_t>(slot)];
  }

  std::vector<uint64_t> words_;        // slot -> narrow value (0 if wide)
  std::vector<SlotInfo> slots_;        // slot -> shape
  std::vector<mem::BitString> wide_;   // values of the wide slots
  std::vector<std::string> names_;     // slot -> name
  int drop_slot_ = kInvalidSlot;
  int mark_slot_ = kInvalidSlot;
  int egress_spec_slot_ = kInvalidSlot;
  std::unordered_map<std::string, int, util::StringHash, std::equal_to<>>
      index_;
};

}  // namespace ipsa::arch
