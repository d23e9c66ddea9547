// Device-resident stores: tables (with their key bindings), actions, and
// the mapping from names to pool-backed storage. In ipbm terms this is the
// Storage Module (SM); in the PISA model the same catalog is prorated among
// stages.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/actions.h"
#include "arch/context.h"
#include "mem/pool.h"
#include "table/table.h"
#include "util/hash.h"
#include "util/status.h"

namespace ipsa::arch {

// How a table's key is assembled from packet fields: fields are concatenated
// low-bits-first in declaration order (field 0 occupies the least
// significant bits of the key). The controller's runtime API packs entry
// keys with the same rule, so both sides always agree.
struct TableBinding {
  std::vector<FieldRef> key_fields;
};

class TableCatalog {
 public:
  explicit TableCatalog(mem::Pool& pool) : pool_(&pool) {}

  // Creates the table and allocates its pool storage.
  Status CreateTable(const table::TableSpec& spec, TableBinding binding,
                     std::optional<uint32_t> cluster = std::nullopt);
  // Destroys the table and recycles its blocks.
  Status DestroyTable(const std::string& name);

  bool Has(std::string_view name) const {
    return tables_.find(name) != tables_.end();
  }
  Result<table::MatchTable*> Get(std::string_view name) const;
  Result<const TableBinding*> GetBinding(std::string_view name) const;

  // Builds the lookup key for `table` from the packet context.
  Result<mem::BitString> BuildKey(std::string_view table,
                                  const PacketContext& ctx) const;
  // In-place variant: assembles the key into `out`, reusing its capacity.
  // The interpreter hot path pairs this with a per-worker scratch key.
  Status BuildKeyInto(std::string_view table, const PacketContext& ctx,
                      mem::BitString& out) const;

  // Sorted, for deterministic enumeration (serde, device reset).
  std::vector<std::string> TableNames() const;
  mem::Pool& pool() { return *pool_; }

  // Bumped on CreateTable/DestroyTable; compiled fast paths holding
  // MatchTable pointers revalidate against this.
  uint64_t version() const { return version_; }

 private:
  struct Slot {
    std::unique_ptr<table::MatchTable> table;
    TableBinding binding;
    uint32_t table_id;
  };

  mem::Pool* pool_;
  std::unordered_map<std::string, Slot, util::StringHash, std::equal_to<>>
      tables_;
  uint32_t next_table_id_ = 1;
  uint64_t version_ = 0;
};

// Named action definitions; "NoAction" is implicitly present.
class ActionStore {
 public:
  Status Add(ActionDef def);
  Status Remove(const std::string& name);
  Result<const ActionDef*> Get(std::string_view name) const;
  bool Has(std::string_view name) const;
  // Sorted, for deterministic enumeration.
  std::vector<std::string> ActionNames() const;

  // Bumped on Add/Remove; compiled fast paths holding ActionDef pointers
  // revalidate against this.
  uint64_t version() const { return version_; }

 private:
  std::unordered_map<std::string, ActionDef, util::StringHash,
                     std::equal_to<>>
      actions_;
  uint64_t version_ = 0;
};

}  // namespace ipsa::arch
