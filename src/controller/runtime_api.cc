#include "controller/runtime_api.h"

#include <algorithm>

namespace ipsa::controller {

mem::BitString Bits(uint32_t width, uint64_t value) {
  return mem::BitString(width, value);
}

mem::BitString MacBits(uint64_t mac48) { return mem::BitString(48, mac48); }

mem::BitString Ipv4Bits(uint32_t addr) { return mem::BitString(32, addr); }

mem::BitString Ipv6Bits(const std::array<uint8_t, 16>& addr_be) {
  // The 128-bit value: byte 0 is the most significant (network order).
  mem::BitString out(128);
  for (size_t byte = 0; byte < 16; ++byte) {
    for (size_t bit = 0; bit < 8; ++bit) {
      bool v = (addr_be[byte] >> (7 - bit)) & 1;
      out.SetBit(127 - (byte * 8 + bit), v);
    }
  }
  return out;
}

namespace {

// Packs `parts` low-bits-first at `widths` (the action_data layout for
// action arguments, the datapath key layout for keys) into one string sized
// once: `put(out, offset, width, part)` stores each part, whole words at a
// time, truncated or zero-extended to its width. Parts beyond `widths` are
// ignored.
template <typename Part, typename Put>
mem::BitString PackWords(const std::vector<uint32_t>& widths,
                         const std::vector<Part>& parts, Put put) {
  size_t total = 0;
  for (uint32_t w : widths) total += w;
  mem::BitString packed(total);
  size_t offset = 0;
  for (size_t i = 0; i < widths.size() && i < parts.size(); ++i) {
    put(packed, offset, widths[i], parts[i]);
    offset += widths[i];
  }
  return packed;
}

void PutBits(mem::BitString& out, size_t offset, uint32_t width,
             const mem::BitString& bits) {
  out.SetBitsFrom(offset, bits, 0, std::min<size_t>(width, bits.bit_width()));
}

mem::BitString PackArgs(const std::vector<uint32_t>& widths,
                        const std::vector<mem::BitString>& args) {
  return PackWords(widths, args, PutBits);
}

}  // namespace

Result<mem::BitString> EntryBuilder::PackKey(
    const compiler::TableApi& api, const std::vector<KeyValue>& values) const {
  if (values.size() != api.key_field_widths.size()) {
    return InvalidArgument("table '" + api.table + "' expects " +
                           std::to_string(api.key_field_widths.size()) +
                           " key fields, got " +
                           std::to_string(values.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].has_bits &&
        values[i].bits.bit_width() != api.key_field_widths[i]) {
      return InvalidArgument("key field " + std::to_string(i) +
                             " width mismatch for table '" + api.table + "'");
    }
  }
  return PackWords(api.key_field_widths, values,
                   [](mem::BitString& out, size_t offset, uint32_t width,
                      const KeyValue& v) {
                     if (v.has_bits) {
                       PutBits(out, offset, width, v.bits);
                     } else {
                       out.SetBits(offset, std::min<uint32_t>(width, 64),
                                   v.raw);
                     }
                   });
}

Result<table::Entry> EntryBuilder::Build(
    std::string_view table, std::string_view action,
    const std::vector<KeyValue>& key_values,
    const std::vector<mem::BitString>& action_args, uint32_t prefix_len,
    uint32_t priority, const std::vector<KeyValue>& mask) const {
  const compiler::TableApi* api = api_->Find(table);
  if (api == nullptr) {
    return NotFound("table '" + std::string(table) + "' has no runtime API");
  }
  table::Entry entry;
  IPSA_ASSIGN_OR_RETURN(entry.key, PackKey(*api, key_values));
  entry.prefix_len = prefix_len;
  entry.priority = priority;
  if (!mask.empty()) {
    IPSA_ASSIGN_OR_RETURN(entry.mask, PackKey(*api, mask));
  } else if (api->match_kind == table::MatchKind::kTernary) {
    // Default: exact-match mask over the whole key.
    entry.mask = mem::BitString(entry.key.bit_width());
    for (size_t i = 0; i < entry.mask.bit_width(); i += 64) {
      const size_t chunk = std::min<size_t>(64, entry.mask.bit_width() - i);
      entry.mask.SetBits(i, chunk, ~uint64_t{0});
    }
  }

  auto it = api->actions.find(action);
  if (it == api->actions.end()) {
    return NotFound("table '" + std::string(table) + "' has no action '" +
                    std::string(action) + "' in its executor");
  }
  entry.action_id = it->second.first;
  const std::vector<uint32_t>& widths = it->second.second;
  if (action_args.size() != widths.size()) {
    return InvalidArgument("action '" + std::string(action) + "' expects " +
                           std::to_string(widths.size()) + " args, got " +
                           std::to_string(action_args.size()));
  }
  entry.action_data = PackArgs(widths, action_args);
  return entry;
}

Result<table::Entry> EntryBuilder::BuildSelectorMember(
    std::string_view table, uint32_t bucket, std::string_view action,
    const std::vector<mem::BitString>& action_args) const {
  const compiler::TableApi* api = api_->Find(table);
  if (api == nullptr) {
    return NotFound("table '" + std::string(table) + "' has no runtime API");
  }
  uint32_t key_width = 0;
  for (uint32_t w : api->key_field_widths) key_width += w;
  table::Entry entry;
  entry.key = mem::BitString(key_width, bucket);
  auto it = api->actions.find(action);
  if (it == api->actions.end()) {
    return NotFound("selector table '" + std::string(table) +
                    "' has no action '" + std::string(action) + "'");
  }
  entry.action_id = it->second.first;
  entry.action_data = PackArgs(it->second.second, action_args);
  return entry;
}

}  // namespace ipsa::controller
