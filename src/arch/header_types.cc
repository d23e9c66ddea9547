#include "arch/header_types.h"

#include <algorithm>

namespace ipsa::arch {

Result<uint32_t> HeaderTypeDef::FieldOffsetBits(std::string_view field) const {
  IPSA_ASSIGN_OR_RETURN(FieldSpan span, FieldSpanOf(field));
  return span.offset_bits;
}

Result<uint32_t> HeaderTypeDef::FieldWidthBits(std::string_view field) const {
  IPSA_ASSIGN_OR_RETURN(FieldSpan span, FieldSpanOf(field));
  return span.width_bits;
}

Result<HeaderTypeDef::FieldSpan> HeaderTypeDef::FieldSpanOf(
    std::string_view field) const {
  auto it = spans_.find(field);
  if (it == spans_.end()) {
    return NotFound("header '" + name_ + "' has no field '" +
                    std::string(field) + "'");
  }
  return it->second;
}

void HeaderTypeDef::SetLink(uint64_t tag, std::string next_header) {
  links_[tag] = std::move(next_header);
  // Unresolved until a registry interns the target.
  auto it = std::lower_bound(
      next_.begin(), next_.end(), tag,
      [](const ResolvedLink& l, uint64_t t) { return l.tag < t; });
  if (it != next_.end() && it->tag == tag) {
    it->id = kNoHeader;
  } else {
    next_.insert(it, ResolvedLink{tag, kNoHeader});
  }
}

Status HeaderTypeDef::RemoveLink(uint64_t tag) {
  if (links_.erase(tag) == 0) {
    return NotFound("header '" + name_ + "' has no link for tag " +
                    std::to_string(tag));
  }
  std::erase_if(next_, [tag](const ResolvedLink& l) { return l.tag == tag; });
  return OkStatus();
}

std::optional<std::string_view> HeaderTypeDef::NextNameFor(
    uint64_t tag) const {
  auto it = links_.find(tag);
  if (it == links_.end()) return std::nullopt;
  return std::string_view(it->second);
}

HeaderRegistry::HeaderRegistry() { entry_id_ = Intern("ethernet"); }

HeaderId HeaderRegistry::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  HeaderId id = static_cast<HeaderId>(slots_.size());
  slots_.push_back(Slot{std::string(name), std::nullopt});
  ids_.emplace(std::string(name), id);
  return id;
}

const std::string& HeaderRegistry::NameOf(HeaderId id) const {
  static const std::string kUnknown = "<unknown>";
  return id < slots_.size() ? slots_[id].name : kUnknown;
}

void HeaderRegistry::ResolveLinks(HeaderTypeDef& def) {
  for (HeaderTypeDef::ResolvedLink& l : def.next_) {
    l.id = Intern(def.links_.at(l.tag));
  }
}

void HeaderRegistry::SetEntryType(std::string name) {
  entry_id_ = Intern(name);
}

Status HeaderRegistry::Add(HeaderTypeDef def) {
  HeaderId id = Intern(def.name());
  Slot& slot = slots_[id];
  if (slot.def.has_value()) {
    return AlreadyExists("header type already registered");
  }
  def.id_ = id;
  ResolveLinks(def);
  slot.def.emplace(std::move(def));
  ++version_;
  return OkStatus();
}

Status HeaderRegistry::Remove(std::string_view name) {
  HeaderId id = IdOf(name);
  if (Find(id) == nullptr) {
    return NotFound("header type '" + std::string(name) + "' not registered");
  }
  slots_[id].def.reset();
  ++version_;
  return OkStatus();
}

Result<const HeaderTypeDef*> HeaderRegistry::Get(std::string_view name) const {
  const HeaderTypeDef* def = Find(IdOf(name));
  if (def == nullptr) {
    return NotFound("header type '" + std::string(name) + "' not registered");
  }
  return def;
}

Result<HeaderTypeDef*> HeaderRegistry::GetMutable(std::string_view name) {
  HeaderId id = IdOf(name);
  if (Find(id) == nullptr) {
    return NotFound("header type '" + std::string(name) + "' not registered");
  }
  return &*slots_[id].def;
}

Status HeaderRegistry::LinkHeader(std::string_view pre, std::string_view next,
                                  uint64_t tag) {
  if (!Has(next)) {
    return NotFound("link target '" + std::string(next) + "' not registered");
  }
  IPSA_ASSIGN_OR_RETURN(HeaderTypeDef * def, GetMutable(pre));
  def->SetLink(tag, std::string(next));
  ResolveLinks(*def);
  ++version_;
  return OkStatus();
}

Status HeaderRegistry::UnlinkHeader(std::string_view pre, uint64_t tag) {
  IPSA_ASSIGN_OR_RETURN(HeaderTypeDef * def, GetMutable(pre));
  IPSA_RETURN_IF_ERROR(def->RemoveLink(tag));
  ++version_;
  return OkStatus();
}

std::vector<std::string> HeaderRegistry::TypeNames() const {
  std::vector<std::string> out;
  for (const Slot& slot : slots_) {
    if (slot.def.has_value()) out.push_back(slot.name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

HeaderRegistry HeaderRegistry::StandardL2L3() {
  HeaderRegistry reg;

  HeaderTypeDef ethernet("ethernet", {{"dst_addr", 48},
                                      {"src_addr", 48},
                                      {"ether_type", 16}});
  ethernet.SetSelectorField("ether_type");
  ethernet.SetLink(0x0800, "ipv4");
  ethernet.SetLink(0x86DD, "ipv6");
  ethernet.SetLink(0x8100, "vlan");
  (void)reg.Add(std::move(ethernet));

  HeaderTypeDef vlan("vlan", {{"pcp", 3},
                              {"dei", 1},
                              {"vid", 12},
                              {"ether_type", 16}});
  vlan.SetSelectorField("ether_type");
  vlan.SetLink(0x0800, "ipv4");
  vlan.SetLink(0x86DD, "ipv6");
  (void)reg.Add(std::move(vlan));

  HeaderTypeDef ipv4("ipv4", {{"version", 4},
                              {"ihl", 4},
                              {"dscp", 6},
                              {"ecn", 2},
                              {"total_len", 16},
                              {"identification", 16},
                              {"flags", 3},
                              {"frag_offset", 13},
                              {"ttl", 8},
                              {"protocol", 8},
                              {"hdr_checksum", 16},
                              {"src_addr", 32},
                              {"dst_addr", 32}});
  ipv4.SetSelectorField("protocol");
  ipv4.SetLink(6, "tcp");
  ipv4.SetLink(17, "udp");
  (void)reg.Add(std::move(ipv4));

  HeaderTypeDef ipv6("ipv6", {{"version", 4},
                              {"traffic_class", 8},
                              {"flow_label", 20},
                              {"payload_len", 16},
                              {"next_hdr", 8},
                              {"hop_limit", 8},
                              {"src_addr", 128},
                              {"dst_addr", 128}});
  ipv6.SetSelectorField("next_hdr");
  ipv6.SetLink(6, "tcp");
  ipv6.SetLink(17, "udp");
  (void)reg.Add(std::move(ipv6));

  HeaderTypeDef tcp("tcp", {{"src_port", 16},
                            {"dst_port", 16},
                            {"seq_no", 32},
                            {"ack_no", 32},
                            {"data_offset", 4},
                            {"res", 4},
                            {"flags", 8},
                            {"window", 16},
                            {"checksum", 16},
                            {"urgent_ptr", 16}});
  (void)reg.Add(std::move(tcp));

  HeaderTypeDef udp("udp", {{"src_port", 16},
                            {"dst_port", 16},
                            {"length", 16},
                            {"checksum", 16}});
  (void)reg.Add(std::move(udp));

  reg.SetEntryType("ethernet");
  return reg;
}

HeaderTypeDef HeaderRegistry::SrhType() {
  // Fixed part of RFC 8754's SRH; the segment list is covered by the
  // variable-size rule so later segments stay in the (unparsed) payload view
  // while segment[0..] are addressed via byte offsets by the SRv6 actions.
  HeaderTypeDef srh("srh", {{"next_hdr", 8},
                            {"hdr_ext_len", 8},
                            {"routing_type", 8},
                            {"segments_left", 8},
                            {"last_entry", 8},
                            {"flags", 8},
                            {"tag", 16}});
  srh.SetSelectorField("next_hdr");
  srh.SetVarSize(VarSizeRule{.len_field = "hdr_ext_len",
                             .add = 1,
                             .multiplier = 8});
  return srh;
}

}  // namespace ipsa::arch
