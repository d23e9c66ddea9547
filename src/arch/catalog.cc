#include "arch/catalog.h"

#include <algorithm>

namespace ipsa::arch {

Status TableCatalog::CreateTable(const table::TableSpec& spec,
                                 TableBinding binding,
                                 std::optional<uint32_t> cluster) {
  if (Has(spec.name)) {
    return AlreadyExists("table '" + spec.name + "' already exists");
  }
  uint32_t id = next_table_id_++;
  IPSA_ASSIGN_OR_RETURN(std::unique_ptr<table::MatchTable> t,
                        table::CreateTable(spec, *pool_, id, cluster));
  tables_.emplace(spec.name,
                  Slot{std::move(t), std::move(binding), id});
  ++version_;
  return OkStatus();
}

Status TableCatalog::DestroyTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return NotFound("table '" + name + "' does not exist");
  }
  it->second.table->FreeStorage();
  tables_.erase(it);
  ++version_;
  return OkStatus();
}

Result<table::MatchTable*> TableCatalog::Get(std::string_view name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return NotFound("table '" + std::string(name) + "' does not exist");
  }
  return it->second.table.get();
}

Result<const TableBinding*> TableCatalog::GetBinding(
    std::string_view name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return NotFound("table '" + std::string(name) + "' does not exist");
  }
  return &it->second.binding;
}

Result<mem::BitString> TableCatalog::BuildKey(std::string_view table,
                                              const PacketContext& ctx) const {
  mem::BitString out;
  IPSA_RETURN_IF_ERROR(BuildKeyInto(table, ctx, out));
  return out;
}

Status TableCatalog::BuildKeyInto(std::string_view table,
                                  const PacketContext& ctx,
                                  mem::BitString& out) const {
  IPSA_ASSIGN_OR_RETURN(const TableBinding* binding, GetBinding(table));
  // Two passes: sizing, then appending. Field reads return SBO BitStrings,
  // so neither pass heap-allocates for the common field widths.
  size_t total = 0;
  for (const FieldRef& ref : binding->key_fields) {
    IPSA_ASSIGN_OR_RETURN(mem::BitString v, ctx.ReadField(ref));
    total += v.bit_width();
  }
  out.Resize(total);
  size_t cursor = 0;
  for (const FieldRef& ref : binding->key_fields) {
    IPSA_ASSIGN_OR_RETURN(mem::BitString v, ctx.ReadField(ref));
    out.AppendBits(v, 0, v.bit_width(), cursor);
  }
  return OkStatus();
}

std::vector<std::string> TableCatalog::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, slot] : tables_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

Status ActionStore::Add(ActionDef def) {
  auto [it, inserted] = actions_.emplace(def.name, std::move(def));
  (void)it;
  if (!inserted) {
    return AlreadyExists("action already defined");
  }
  ++version_;
  return OkStatus();
}

Status ActionStore::Remove(const std::string& name) {
  if (actions_.erase(name) == 0) {
    return NotFound("action '" + name + "' not defined");
  }
  ++version_;
  return OkStatus();
}

Result<const ActionDef*> ActionStore::Get(std::string_view name) const {
  if (name == "NoAction" || name.empty()) return &NoAction();
  auto it = actions_.find(name);
  if (it == actions_.end()) {
    return NotFound("action '" + std::string(name) + "' not defined");
  }
  return &it->second;
}

bool ActionStore::Has(std::string_view name) const {
  return name == "NoAction" || actions_.find(name) != actions_.end();
}

std::vector<std::string> ActionStore::ActionNames() const {
  std::vector<std::string> out;
  out.reserve(actions_.size());
  for (const auto& [name, def] : actions_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ipsa::arch
