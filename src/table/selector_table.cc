#include "table/selector_table.h"

#include <algorithm>

#include "util/hash.h"

namespace ipsa::table {

SelectorTable::~SelectorTable() {
  // The last view never owned the members it points at.
  for (const Member* m : members_) delete m;
  for (const Member* m : dropped_) delete m;
}

std::vector<const SelectorTable::Member*>::iterator SelectorTable::LowerBound(
    uint32_t row) {
  return std::lower_bound(
      members_.begin(), members_.end(), row,
      [](const Member* m, uint32_t r) { return m->row < r; });
}

void SelectorTable::Publish() {
  auto next = std::make_unique<View>();
  next->members = members_;
  view_.Store(std::move(next));
  // Unreachable now that the view pointing at them is retired too.
  for (const Member* m : dropped_) {
    rcu::Domain::Global().Retire(const_cast<Member*>(m));
  }
  dropped_.clear();
}

Status SelectorTable::InsertOp(const Entry& entry, bool upsert) {
  uint32_t row = static_cast<uint32_t>(entry.key.ToUint64());
  auto it = LowerBound(row);
  bool present = it != members_.end() && (*it)->row == row;
  if (present && !upsert) {
    return AlreadyExists(Describe() + ": bucket already populated");
  }
  IPSA_RETURN_IF_ERROR(storage_.WriteRow(*pool_, row, PackRow(entry)));
  const Member* member = new Member{row, DecodeRow(row)};
  if (present) {
    dropped_.push_back(*it);
    *it = member;
  } else {
    members_.insert(it, member);
    entry_count_.fetch_add(1, std::memory_order_relaxed);
  }
  Changed();
  return OkStatus();
}

Status SelectorTable::EraseOp(const Entry& entry) {
  uint32_t row = static_cast<uint32_t>(entry.key.ToUint64());
  auto it = LowerBound(row);
  if (it == members_.end() || (*it)->row != row) {
    return NotFound(Describe() + ": bucket not populated");
  }
  IPSA_RETURN_IF_ERROR(storage_.InvalidateRow(*pool_, row));
  dropped_.push_back(*it);
  members_.erase(it);
  entry_count_.fetch_sub(1, std::memory_order_relaxed);
  Changed();
  return OkStatus();
}

void SelectorTable::LookupInto(const mem::BitString& key,
                               LookupResult& out) const {
  rcu::Domain::ReadGuard guard(rcu::Domain::Global());
  const View* view = view_.Load();
  if (view->members.empty()) {
    MissInto(out);
    return;
  }
  uint32_t h = util::Crc32(key.bytes());
  const Member& m = *view->members[h % view->members.size()];
  HitInto(m.row, m.action, out);
}

void SelectorTable::RefreshCache() {
  for (const Member*& m : members_) {
    dropped_.push_back(m);
    m = new Member{m->row, DecodeRow(m->row)};
  }
  Changed();
}

}  // namespace ipsa::table
