// Generic header type system.
//
// Both switch models parse packets from *descriptors*, not hard-coded code:
// a HeaderTypeDef lists ordered fields (big-endian bit ranges) plus the
// rP4 "implicit parser" linkage — which field selects the next header and
// which tag values map to which successor types (Fig. 2 <parser_def>).
//
// The linkage is mutable at runtime: the controller's
// `link_header --pre IPv6 --next SRH --tag 43` command (Fig. 5c) edits this
// registry on the live device, which is what lets SRv6 be loaded in-situ.
//
// Names are for configuration; packets use ids. The registry interns every
// header type name it sees (registered types and link targets) to a dense
// HeaderId and resolves each registered type's links to those ids, so the
// parse chain, the PHV and compiled stages never hash or compare a name.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/hash.h"
#include "util/status.h"

namespace ipsa::arch {

// Dense per-registry id of a header type (== of the instance named after
// it). Ids are never reused or renumbered within a registry, so one stays
// valid across Remove/Add of the same name.
using HeaderId = uint32_t;
inline constexpr HeaderId kNoHeader = ~HeaderId{0};

struct FieldDef {
  std::string name;
  uint32_t width_bits = 0;
};

// Variable-size rule: size_bytes = (value(len_field) + add) * multiplier.
// E.g. the SRH: (hdr_ext_len + 1) * 8.
struct VarSizeRule {
  std::string len_field;
  uint32_t add = 0;
  uint32_t multiplier = 1;
};

class HeaderTypeDef {
 public:
  // Bit range of one field within the header, MSB-first.
  struct FieldSpan {
    uint32_t offset_bits = 0;
    uint32_t width_bits = 0;
  };

  HeaderTypeDef() = default;
  HeaderTypeDef(std::string name, std::vector<FieldDef> fields)
      : name_(std::move(name)), fields_(std::move(fields)) {
    uint32_t off = 0;
    for (const FieldDef& f : fields_) {
      spans_[f.name] = FieldSpan{off, f.width_bits};
      off += f.width_bits;
    }
    total_bits_ = off;
  }

  const std::string& name() const { return name_; }
  // This type's id in the registry holding it (kNoHeader for a standalone
  // definition).
  HeaderId id() const { return id_; }
  const std::vector<FieldDef>& fields() const { return fields_; }
  uint32_t total_bits() const { return total_bits_; }
  uint32_t fixed_size_bytes() const { return (total_bits_ + 7) / 8; }

  bool HasField(std::string_view field) const {
    return spans_.find(field) != spans_.end();
  }
  // Bit offset of `field` from the start of the header, MSB-first.
  Result<uint32_t> FieldOffsetBits(std::string_view field) const;
  Result<uint32_t> FieldWidthBits(std::string_view field) const;
  // Offset + width in one probe (the per-packet field-access path).
  Result<FieldSpan> FieldSpanOf(std::string_view field) const;

  // Parser linkage.
  void SetSelectorField(std::string field) {
    selector_field_ = std::move(field);
    auto it = spans_.find(*selector_field_);
    selector_span_ =
        it == spans_.end() ? std::nullopt : std::optional(it->second);
  }
  const std::optional<std::string>& selector_field() const {
    return selector_field_;
  }
  // Bit range of the selector field, resolved once at SetSelectorField so
  // the per-packet parse step never hashes the field name. Empty when no
  // selector is set or the named field does not exist.
  const std::optional<FieldSpan>& selector_span() const {
    return selector_span_;
  }
  // Links are set by name; the registry resolves them to ids when the
  // definition is added (and on LinkHeader/UnlinkHeader).
  void SetLink(uint64_t tag, std::string next_header);
  Status RemoveLink(uint64_t tag);
  // The successor type for a selector tag, or kNoHeader when the tag has no
  // link (the chain ends). The per-packet parse step: a scan of a few ints.
  HeaderId NextFor(uint64_t tag) const {
    for (const ResolvedLink& l : next_) {
      if (l.tag == tag) return l.id;
    }
    return kNoHeader;
  }
  // The successor's name (configuration and tests).
  std::optional<std::string_view> NextNameFor(uint64_t tag) const;
  const std::map<uint64_t, std::string>& links() const { return links_; }

  // Variable size.
  void SetVarSize(VarSizeRule rule) {
    var_size_ = std::move(rule);
    auto it = spans_.find(var_size_->len_field);
    var_len_span_ =
        it == spans_.end() ? std::nullopt : std::optional(it->second);
  }
  const std::optional<VarSizeRule>& var_size() const { return var_size_; }
  // Length-field span resolved once at SetVarSize (same contract as
  // selector_span()).
  const std::optional<FieldSpan>& var_len_span() const {
    return var_len_span_;
  }

 private:
  friend class HeaderRegistry;

  struct ResolvedLink {
    uint64_t tag = 0;
    HeaderId id = kNoHeader;
  };

  std::string name_;
  HeaderId id_ = kNoHeader;
  std::vector<FieldDef> fields_;
  std::unordered_map<std::string, FieldSpan, util::StringHash,
                     std::equal_to<>>
      spans_;
  uint32_t total_bits_ = 0;
  std::optional<std::string> selector_field_;
  std::optional<FieldSpan> selector_span_;
  std::map<uint64_t, std::string> links_;
  std::vector<ResolvedLink> next_;  // links_ with ids, in tag order
  std::optional<VarSizeRule> var_size_;
  std::optional<FieldSpan> var_len_span_;
};

// Registry of header types for one device, plus the parse entry point.
class HeaderRegistry {
 public:
  HeaderRegistry();

  Status Add(HeaderTypeDef def);
  Status Remove(std::string_view name);
  bool Has(std::string_view name) const { return Find(IdOf(name)) != nullptr; }
  Result<const HeaderTypeDef*> Get(std::string_view name) const;

  // --- id interface (the packet path) ----------------------------------------
  // The id interned for `name`, or kNoHeader if the registry never saw it.
  HeaderId IdOf(std::string_view name) const {
    auto it = ids_.find(name);
    return it == ids_.end() ? kNoHeader : it->second;
  }
  // The registered type with id `id`, or null (removed, only a link target,
  // or kNoHeader).
  const HeaderTypeDef* Find(HeaderId id) const {
    return id < slots_.size() && slots_[id].def.has_value() ? &*slots_[id].def
                                                            : nullptr;
  }
  // The name interned as `id` (error messages).
  const std::string& NameOf(HeaderId id) const;

  void SetEntryType(std::string name);
  const std::string& entry_type() const { return NameOf(entry_id_); }
  HeaderId entry_id() const { return entry_id_; }

  // Runtime linkage edits (controller `link_header` / `unlink_header`).
  Status LinkHeader(std::string_view pre, std::string_view next, uint64_t tag);
  Status UnlinkHeader(std::string_view pre, uint64_t tag);

  // Sorted, for deterministic enumeration (serde golden output).
  std::vector<std::string> TypeNames() const;

  // Bumped on any type/linkage mutation; compiled fast paths holding
  // HeaderTypeDef-derived offsets and pointers revalidate against this.
  uint64_t version() const { return version_; }

  // Installs Ethernet/VLAN/IPv4/IPv6/TCP/UDP with their standard linkage;
  // the base L2/L3 design and tests start from this. SRH is intentionally
  // NOT pre-installed: loading it at runtime is use case C2.
  static HeaderRegistry StandardL2L3();

  // The SRH type definition used by the SRv6 use case.
  static HeaderTypeDef SrhType();

 private:
  // One interned name. A deque keeps every definition's address stable as
  // names are interned (PHV instances and compiled stages point at them),
  // and copies the registry deeply with the default copy constructor.
  struct Slot {
    std::string name;
    std::optional<HeaderTypeDef> def;  // empty unless registered
  };

  HeaderId Intern(std::string_view name);
  // Re-resolves `def`'s links against this registry's ids.
  void ResolveLinks(HeaderTypeDef& def);
  Result<HeaderTypeDef*> GetMutable(std::string_view name);

  std::deque<Slot> slots_;  // HeaderId -> slot
  std::unordered_map<std::string, HeaderId, util::StringHash, std::equal_to<>>
      ids_;
  HeaderId entry_id_ = kNoHeader;
  uint64_t version_ = 0;
};

}  // namespace ipsa::arch
