#include "arch/phv.h"

#include <algorithm>

namespace ipsa::arch {

const HeaderInstance* Phv::Find(std::string_view name) const {
  for (const auto& h : instances_) {
    if (h.name() == name) return &h;
  }
  return nullptr;
}

void Phv::ShiftOffsets(uint32_t from_offset, int32_t delta) {
  for (auto& h : instances_) {
    if (h.byte_offset >= from_offset) {
      h.byte_offset = static_cast<uint32_t>(
          static_cast<int64_t>(h.byte_offset) + delta);
    }
  }
}

Status Metadata::Declare(const std::string& name, uint32_t width_bits) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    if (Info(it->second).width != width_bits) {
      return AlreadyExists("metadata field '" + name +
                           "' redeclared with different width");
    }
    return OkStatus();
  }
  int slot = static_cast<int>(slots_.size());
  SlotInfo info;
  info.width = width_bits;
  if (width_bits > 64) {
    info.wide = static_cast<int32_t>(wide_.size());
    wide_.emplace_back(width_bits);
  } else {
    info.mask = width_bits == 64 ? ~uint64_t{0}
                                 : (uint64_t{1} << width_bits) - 1;
  }
  slots_.push_back(info);
  words_.push_back(0);
  index_.emplace(name, slot);
  if (name == "drop") {
    drop_slot_ = slot;
  } else if (name == "mark") {
    mark_slot_ = slot;
  } else if (name == "egress_spec") {
    egress_spec_slot_ = slot;
  }
  return OkStatus();
}

uint32_t Metadata::WidthOf(std::string_view name) const {
  int slot = SlotOf(name);
  return slot == kInvalidSlot ? 0 : Info(slot).width;
}

mem::BitString Metadata::SlotRead(int slot) const {
  const SlotInfo& info = Info(slot);
  if (info.wide >= 0) return wide_[static_cast<size_t>(info.wide)];
  return mem::BitString(info.width, words_[static_cast<size_t>(slot)]);
}

void Metadata::SlotWrite(int slot, const mem::BitString& value) {
  const SlotInfo& info = Info(slot);
  if (info.wide >= 0) {
    wide_[static_cast<size_t>(info.wide)].Assign(value);
    return;
  }
  // Truncate/zero-extend to the field width, like BitString::Assign.
  words_[static_cast<size_t>(slot)] = value.GetBits(0, info.width);
}

void Metadata::SlotWriteUint(int slot, uint64_t value) {
  const SlotInfo& info = Info(slot);
  if (info.wide < 0) {
    words_[static_cast<size_t>(slot)] = value & info.mask;
    return;
  }
  mem::BitString& v = wide_[static_cast<size_t>(info.wide)];
  v.Zero();
  v.SetBits(0, 64, value);
}

Result<mem::BitString> Metadata::Read(std::string_view name) const {
  int slot = SlotOf(name);
  if (slot == kInvalidSlot) {
    return NotFound("metadata field '" + std::string(name) + "' not declared");
  }
  return SlotRead(slot);
}

Status Metadata::Write(std::string_view name, const mem::BitString& value) {
  int slot = SlotOf(name);
  if (slot == kInvalidSlot) {
    return NotFound("metadata field '" + std::string(name) + "' not declared");
  }
  SlotWrite(slot, value);
  return OkStatus();
}

uint64_t Metadata::ReadUint(std::string_view name) const {
  int slot = SlotOf(name);
  return slot == kInvalidSlot ? 0 : SlotReadUint(slot);
}

Status Metadata::WriteUint(std::string_view name, uint64_t value) {
  int slot = SlotOf(name);
  if (slot == kInvalidSlot) {
    return NotFound("metadata field '" + std::string(name) + "' not declared");
  }
  SlotWriteUint(slot, value);
  return OkStatus();
}

void Metadata::Reset() {
  std::fill(words_.begin(), words_.end(), uint64_t{0});
  for (auto& value : wide_) value.Zero();
}

Metadata Metadata::Standard() {
  Metadata m;
  (void)m.Declare("ingress_port", 9);
  (void)m.Declare("egress_spec", 9);
  (void)m.Declare("drop", 1);
  (void)m.Declare("mark", 1);
  // The base L2/L3 design's user metadata (Fig. 4 stages A-J).
  (void)m.Declare("if_index", 16);
  (void)m.Declare("bd", 16);
  (void)m.Declare("vrf", 16);
  (void)m.Declare("l3", 1);        // 1 = route, 0 = bridge
  (void)m.Declare("nexthop", 16);
  return m;
}

}  // namespace ipsa::arch
