#include "arch/parse_engine.h"

namespace ipsa::arch {

namespace {

// Computes the size in bytes of header `type` located at `byte_offset`.
Result<uint32_t> HeaderSize(const PacketContext& ctx,
                            const HeaderTypeDef& type, uint32_t byte_offset) {
  if (!type.var_size().has_value()) return type.fixed_size_bytes();
  const VarSizeRule& rule = *type.var_size();
  HeaderTypeDef::FieldSpan span;
  if (type.var_len_span().has_value()) {
    span = *type.var_len_span();
  } else {
    // Length field was never resolvable; report the same error the
    // name-based path would.
    IPSA_ASSIGN_OR_RETURN(span.offset_bits,
                          type.FieldOffsetBits(rule.len_field));
    IPSA_ASSIGN_OR_RETURN(span.width_bits,
                          type.FieldWidthBits(rule.len_field));
  }
  size_t abs = static_cast<size_t>(byte_offset) * 8 + span.offset_bits;
  if (abs + span.width_bits > ctx.packet().size() * 8) {
    return OutOfRange("variable-size length field beyond packet end");
  }
  uint64_t len = span.width_bits <= 64
                     ? ReadWire64(ctx.packet().bytes(), abs, span.width_bits)
                     : ReadWireBits(ctx.packet().bytes(), abs, span.width_bits)
                           .ToUint64();
  return static_cast<uint32_t>((len + rule.add) * rule.multiplier);
}

// The selector tag as an integer: the field's value truncated to its low 64
// bits, exactly matching ReadField(...).ToUint64() on the same span.
uint64_t ReadSelectorTag(const PacketContext& ctx, uint32_t byte_offset,
                         HeaderTypeDef::FieldSpan span) {
  size_t abs = static_cast<size_t>(byte_offset) * 8 + span.offset_bits;
  if (span.width_bits <= 64) {
    return ReadWire64(ctx.packet().bytes(), abs, span.width_bits);
  }
  // A >64-bit selector's low 64 value bits are the last 64 wire bits.
  return ReadWire64(ctx.packet().bytes(), abs + span.width_bits - 64, 64);
}

}  // namespace

Result<bool> ParseEngine::ParseNext(PacketContext& ctx, ParseStats& stats) {
  const HeaderRegistry& reg = ctx.registry();
  HeaderId next_id;
  uint32_t next_offset = 0;

  const HeaderInstance* last = ctx.phv().Last();
  if (last == nullptr) {
    next_id = reg.entry_id();
  } else {
    const HeaderTypeDef* last_def = last->def;
    if (!last_def->selector_field().has_value()) return false;
    uint64_t tag_value;
    if (last_def->selector_span().has_value()) {
      tag_value = ReadSelectorTag(ctx, last->byte_offset,
                                  *last_def->selector_span());
    } else {
      // Selector names a nonexistent field; take the name-based path so the
      // error matches the interpreter's.
      IPSA_ASSIGN_OR_RETURN(
          mem::BitString tag,
          ctx.ReadField(FieldRef::Header(last->name(),
                                         *last_def->selector_field())));
      tag_value = tag.ToUint64();
    }
    next_id = last_def->NextFor(tag_value);
    if (next_id == kNoHeader) return false;  // unknown tag: chain ends
    next_offset = last->byte_offset + last->size_bytes;
  }

  const HeaderTypeDef* def = reg.Find(next_id);
  if (def == nullptr) {
    return NotFound("header type '" + reg.NameOf(next_id) +
                    "' not registered");
  }
  if (static_cast<size_t>(next_offset) + def->fixed_size_bytes() >
      ctx.packet().size()) {
    return false;  // truncated packet: stop parsing
  }
  IPSA_ASSIGN_OR_RETURN(uint32_t size, HeaderSize(ctx, *def, next_offset));
  if (static_cast<size_t>(next_offset) + size > ctx.packet().size()) {
    return false;
  }
  ctx.phv().Add(HeaderInstance{.id = next_id,
                               .byte_offset = next_offset,
                               .size_bytes = size,
                               .valid = true,
                               .def = def});
  ++stats.headers_parsed;
  stats.bytes_parsed += size;
  stats.cycles += kCyclesPerHeader;
  ctx.ChargeCycles(kCyclesPerHeader);
  return true;
}

Result<ParseStats> ParseEngine::ParseUntil(PacketContext& ctx,
                                           std::span<const HeaderId> wanted) {
  ParseStats stats;
  auto all_present = [&] {
    for (HeaderId id : wanted) {
      if (!ctx.phv().IsValid(id)) return false;
    }
    return true;
  };
  while (!all_present()) {
    IPSA_ASSIGN_OR_RETURN(bool more, ParseNext(ctx, stats));
    if (!more) break;
  }
  return stats;
}

Result<ParseStats> ParseEngine::ParseUntil(
    PacketContext& ctx, const std::vector<std::string>& wanted) {
  // A name the registry never interned can never be parsed: kNoHeader is in
  // no PHV, so the walk runs to the end of the chain, as a name would.
  std::vector<HeaderId> ids;
  ids.reserve(wanted.size());
  for (const std::string& name : wanted) {
    ids.push_back(ctx.registry().IdOf(name));
  }
  return ParseUntil(ctx, std::span<const HeaderId>(ids));
}

Result<ParseStats> ParseEngine::ParseAll(PacketContext& ctx) {
  ParseStats stats;
  while (true) {
    IPSA_ASSIGN_OR_RETURN(bool more, ParseNext(ctx, stats));
    if (!more) break;
  }
  return stats;
}

}  // namespace ipsa::arch
