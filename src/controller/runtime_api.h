// Runtime table-entry construction against the compiler-generated API spec
// (paper §3.2: "rp4fc also outputs the APIs for controller to access the
// tables at runtime").
//
// Keys pack field values low-bits-first in key declaration order — the same
// rule arch::TableCatalog::BuildKeyInto applies on the datapath, so
// controller-built entries and matcher-built lookup keys always agree.
#pragma once

#include <cstdint>
#include <vector>

#include "compiler/rp4fc.h"
#include "mem/block.h"
#include "table/table.h"
#include "util/status.h"

namespace ipsa::controller {

// A single key-field value; width comes from the API spec.
struct KeyValue {
  mem::BitString bits;

  KeyValue(uint64_t v) : raw(v) {}                       // NOLINT
  KeyValue(mem::BitString b) : bits(std::move(b)), has_bits(true) {}  // NOLINT

  uint64_t raw = 0;
  bool has_bits = false;
};

class EntryBuilder {
 public:
  explicit EntryBuilder(const compiler::ApiSpec& api) : api_(&api) {}

  // Builds an entry for `table` invoking `action`. Key values must match
  // the table's key fields in order; action arguments match the action's
  // parameters in order. `prefix_len` applies to LPM tables (counted over
  // the full key, MSB-first); `priority` to ternary; `mask` to ternary.
  Result<table::Entry> Build(std::string_view table, std::string_view action,
                             const std::vector<KeyValue>& key_values,
                             const std::vector<mem::BitString>& action_args,
                             uint32_t prefix_len = 0, uint32_t priority = 0,
                             const std::vector<KeyValue>& mask = {}) const;

  // Selector-table member: bucket index + action + args.
  Result<table::Entry> BuildSelectorMember(
      std::string_view table, uint32_t bucket, std::string_view action,
      const std::vector<mem::BitString>& action_args) const;

  const compiler::ApiSpec& api() const { return *api_; }

 private:
  Result<mem::BitString> PackKey(const compiler::TableApi& api,
                                 const std::vector<KeyValue>& values) const;

  const compiler::ApiSpec* api_;
};

// Convenience BitString makers for common field kinds.
mem::BitString Bits(uint32_t width, uint64_t value);
mem::BitString MacBits(uint64_t mac48);
mem::BitString Ipv4Bits(uint32_t addr);
mem::BitString Ipv6Bits(const std::array<uint8_t, 16>& addr_be);

}  // namespace ipsa::controller
