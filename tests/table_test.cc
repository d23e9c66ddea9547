#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "table/exact_table.h"
#include "table/lpm_table.h"
#include "table/rcu.h"
#include "table/selector_table.h"
#include "table/table.h"
#include "table/ternary_table.h"
#include "util/hash.h"
#include "util/rng.h"

namespace ipsa::table {
namespace {

mem::PoolConfig TestPool() {
  mem::PoolConfig cfg;
  cfg.sram_blocks = 64;
  cfg.sram_width_bits = 128;
  cfg.sram_depth = 256;
  cfg.tcam_blocks = 16;
  cfg.tcam_width_bits = 128;
  cfg.tcam_depth = 64;
  return cfg;
}

TableSpec Spec(const std::string& name, MatchKind kind, uint32_t key_width,
               uint32_t size = 64) {
  TableSpec spec;
  spec.name = name;
  spec.match_kind = kind;
  spec.key_width_bits = key_width;
  spec.action_data_width_bits = 32;
  spec.size = size;
  return spec;
}

Entry MakeEntry(uint64_t key, uint32_t key_width, uint32_t action_id,
                uint64_t data) {
  Entry e;
  e.key = mem::BitString(key_width, key);
  e.action_id = action_id;
  e.action_data = mem::BitString(32, data);
  return e;
}

class TableTest : public ::testing::Test {
 protected:
  TableTest() : pool_(TestPool()) {}
  mem::Pool pool_;
};

// --- exact ---------------------------------------------------------------------

TEST_F(TableTest, ExactInsertLookupErase) {
  auto t = CreateTable(Spec("t", MatchKind::kExact, 32), pool_, 1);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*t)->Insert(MakeEntry(0xAABB, 32, 2, 77)).ok());

  LookupResult hit = (*t)->Lookup(mem::BitString(32, 0xAABB));
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.action_id, 2u);
  EXPECT_EQ(hit.action_data.ToUint64(), 77u);
  EXPECT_GT(hit.access_cycles, 0u);

  LookupResult miss = (*t)->Lookup(mem::BitString(32, 0xAABC));
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.action_id, 0u);  // default action

  ASSERT_TRUE((*t)->Erase(MakeEntry(0xAABB, 32, 0, 0)).ok());
  EXPECT_FALSE((*t)->Lookup(mem::BitString(32, 0xAABB)).hit);
  EXPECT_EQ((*t)->entry_count(), 0u);
}

TEST_F(TableTest, ExactUpdateInPlace) {
  auto t = CreateTable(Spec("t", MatchKind::kExact, 16), pool_, 1);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*t)->Insert(MakeEntry(5, 16, 1, 10)).ok());
  ASSERT_TRUE((*t)->Insert(MakeEntry(5, 16, 1, 20)).ok());  // overwrite
  EXPECT_EQ((*t)->entry_count(), 1u);
  EXPECT_EQ((*t)->Lookup(mem::BitString(16, 5)).action_data.ToUint64(), 20u);
}

TEST_F(TableTest, ExactCapacityEnforced) {
  auto t = CreateTable(Spec("t", MatchKind::kExact, 16, /*size=*/4), pool_, 1);
  ASSERT_TRUE(t.ok());
  for (uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE((*t)->Insert(MakeEntry(k, 16, 1, k)).ok());
  }
  EXPECT_EQ((*t)->Insert(MakeEntry(99, 16, 1, 0)).code(),
            StatusCode::kResourceExhausted);
  // Freeing one slot re-enables insertion.
  ASSERT_TRUE((*t)->Erase(MakeEntry(2, 16, 0, 0)).ok());
  EXPECT_TRUE((*t)->Insert(MakeEntry(99, 16, 1, 0)).ok());
}

TEST_F(TableTest, ExactRejectsWrongKeyWidth) {
  auto t = CreateTable(Spec("t", MatchKind::kExact, 32), pool_, 1);
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE((*t)->Insert(MakeEntry(1, 16, 1, 0)).ok());
  EXPECT_FALSE((*t)->Erase(MakeEntry(123, 32, 0, 0)).ok());  // not present
}

// --- lpm ------------------------------------------------------------------------

TEST_F(TableTest, LpmLongestPrefixWins) {
  auto t = CreateTable(Spec("fib", MatchKind::kLpm, 32), pool_, 1);
  ASSERT_TRUE(t.ok());
  Entry def = MakeEntry(0x0A000000, 32, 1, 8);
  def.prefix_len = 8;
  Entry mid = MakeEntry(0x0A0B0000, 32, 1, 16);
  mid.prefix_len = 16;
  Entry host = MakeEntry(0x0A0B0C0D, 32, 1, 32);
  host.prefix_len = 32;
  ASSERT_TRUE((*t)->Insert(def).ok());
  ASSERT_TRUE((*t)->Insert(mid).ok());
  ASSERT_TRUE((*t)->Insert(host).ok());

  EXPECT_EQ((*t)->Lookup(mem::BitString(32, 0x0A0B0C0D)).action_data
                .ToUint64(),
            32u);
  EXPECT_EQ((*t)->Lookup(mem::BitString(32, 0x0A0B0C0E)).action_data
                .ToUint64(),
            16u);
  EXPECT_EQ((*t)->Lookup(mem::BitString(32, 0x0AFFFFFF)).action_data
                .ToUint64(),
            8u);
  EXPECT_FALSE((*t)->Lookup(mem::BitString(32, 0x0B000000)).hit);
}

TEST_F(TableTest, LpmZeroLengthPrefixIsDefaultRoute) {
  auto t = CreateTable(Spec("fib", MatchKind::kLpm, 32), pool_, 1);
  ASSERT_TRUE(t.ok());
  Entry def = MakeEntry(0, 32, 1, 99);
  def.prefix_len = 0;
  ASSERT_TRUE((*t)->Insert(def).ok());
  EXPECT_TRUE((*t)->Lookup(mem::BitString(32, 0x12345678)).hit);
}

TEST_F(TableTest, LpmEraseRestoresShorterMatch) {
  auto t = CreateTable(Spec("fib", MatchKind::kLpm, 32), pool_, 1);
  ASSERT_TRUE(t.ok());
  Entry base = MakeEntry(0x0A000000, 32, 1, 8);
  base.prefix_len = 8;
  Entry specific = MakeEntry(0x0A0B0000, 32, 1, 16);
  specific.prefix_len = 16;
  ASSERT_TRUE((*t)->Insert(base).ok());
  ASSERT_TRUE((*t)->Insert(specific).ok());
  ASSERT_TRUE((*t)->Erase(specific).ok());
  EXPECT_EQ((*t)->Lookup(mem::BitString(32, 0x0A0B0001)).action_data
                .ToUint64(),
            8u);
}

TEST_F(TableTest, LpmRejectsOverlongPrefix) {
  auto t = CreateTable(Spec("fib", MatchKind::kLpm, 32), pool_, 1);
  ASSERT_TRUE(t.ok());
  Entry e = MakeEntry(1, 32, 1, 0);
  e.prefix_len = 33;
  EXPECT_FALSE((*t)->Insert(e).ok());
}

TEST_F(TableTest, LpmHandles128BitKeys) {
  // IPv6 FIB shape: 128-bit keys, /48 and /128 prefixes.
  auto t = CreateTable(Spec("fib6", MatchKind::kLpm, 128), pool_, 1);
  ASSERT_TRUE(t.ok());
  // 2001:db8:ff::/48.
  mem::BitString prefix48(128);
  prefix48.SetBits(112, 16, 0x2001);
  prefix48.SetBits(96, 16, 0x0db8);
  prefix48.SetBits(80, 16, 0x00ff);
  Entry wide;
  wide.key = prefix48;
  wide.prefix_len = 48;
  wide.action_id = 1;
  wide.action_data = mem::BitString(32, 48);
  ASSERT_TRUE((*t)->Insert(wide).ok());
  // Exact host within it.
  mem::BitString host = prefix48;
  host.SetBits(0, 16, 0x0042);
  Entry exact;
  exact.key = host;
  exact.prefix_len = 128;
  exact.action_id = 1;
  exact.action_data = mem::BitString(32, 128);
  ASSERT_TRUE((*t)->Insert(exact).ok());

  EXPECT_EQ((*t)->Lookup(host).action_data.ToUint64(), 128u);
  mem::BitString other = prefix48;
  other.SetBits(0, 16, 0x0043);
  EXPECT_EQ((*t)->Lookup(other).action_data.ToUint64(), 48u);
  mem::BitString outside(128);
  outside.SetBits(112, 16, 0x2001);
  outside.SetBits(96, 16, 0x0db9);  // different /32
  EXPECT_FALSE((*t)->Lookup(outside).hit);
}

// Randomized sweep: trie result must equal a linear reference scan.
struct LpmSweepParam {
  uint64_t seed;
  uint32_t entries;
};

class LpmSweepTest : public ::testing::TestWithParam<LpmSweepParam> {};

TEST_P(LpmSweepTest, MatchesLinearReference) {
  mem::Pool pool(TestPool());
  auto t = CreateTable(Spec("fib", MatchKind::kLpm, 32, 512), pool, 1);
  ASSERT_TRUE(t.ok());
  util::Rng rng(GetParam().seed);

  struct RefEntry {
    uint32_t prefix;
    uint32_t len;
    uint64_t data;
  };
  std::vector<RefEntry> ref;
  for (uint32_t i = 0; i < GetParam().entries; ++i) {
    uint32_t len = static_cast<uint32_t>(rng.NextInRange(0, 32));
    uint32_t prefix = static_cast<uint32_t>(rng.Next());
    if (len != 0 && len < 32) prefix &= ~((1u << (32 - len)) - 1);
    Entry e = MakeEntry(prefix, 32, 1, i + 1);
    e.prefix_len = len;
    ASSERT_TRUE((*t)->Insert(e).ok());
    // Reference keeps the last data for duplicate prefixes (update-in-place).
    bool updated = false;
    for (auto& r : ref) {
      if (r.prefix == prefix && r.len == len) {
        r.data = i + 1;
        updated = true;
      }
    }
    if (!updated) ref.push_back({prefix, len, i + 1});
  }

  for (int q = 0; q < 500; ++q) {
    uint32_t addr = static_cast<uint32_t>(rng.Next());
    // Linear reference: longest matching prefix, latest data.
    int32_t best_len = -1;
    uint64_t best_data = 0;
    for (const auto& r : ref) {
      uint32_t mask = r.len == 0 ? 0 : ~((r.len == 32 ? 0 : (1u << (32 - r.len)) - 1));
      if ((addr & mask) == (r.prefix & mask) &&
          static_cast<int32_t>(r.len) > best_len) {
        best_len = static_cast<int32_t>(r.len);
        best_data = r.data;
      }
    }
    LookupResult got = (*t)->Lookup(mem::BitString(32, addr));
    if (best_len < 0) {
      EXPECT_FALSE(got.hit) << "addr=" << addr;
    } else {
      ASSERT_TRUE(got.hit) << "addr=" << addr;
      EXPECT_EQ(got.action_data.ToUint64(), best_data) << "addr=" << addr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTries, LpmSweepTest,
                         ::testing::Values(LpmSweepParam{1, 16},
                                           LpmSweepParam{2, 64},
                                           LpmSweepParam{3, 200},
                                           LpmSweepParam{4, 400}));

// --- ternary ---------------------------------------------------------------------

TEST_F(TableTest, TernaryPriorityOrder) {
  auto t = CreateTable(Spec("acl", MatchKind::kTernary, 16), pool_, 1);
  ASSERT_TRUE(t.ok());
  Entry broad = MakeEntry(0x1200, 16, 1, 1);
  broad.mask = mem::BitString(16, 0xFF00);
  broad.priority = 10;
  Entry narrow = MakeEntry(0x1234, 16, 1, 2);
  narrow.mask = mem::BitString(16, 0xFFFF);
  narrow.priority = 20;
  ASSERT_TRUE((*t)->Insert(broad).ok());
  ASSERT_TRUE((*t)->Insert(narrow).ok());

  EXPECT_EQ((*t)->Lookup(mem::BitString(16, 0x1234)).action_data.ToUint64(),
            2u);
  EXPECT_EQ((*t)->Lookup(mem::BitString(16, 0x1299)).action_data.ToUint64(),
            1u);
  EXPECT_FALSE((*t)->Lookup(mem::BitString(16, 0x2000)).hit);
}

TEST_F(TableTest, TernaryWildcardEntry) {
  auto t = CreateTable(Spec("acl", MatchKind::kTernary, 16), pool_, 1);
  ASSERT_TRUE(t.ok());
  Entry any = MakeEntry(0, 16, 1, 42);
  any.mask = mem::BitString(16, 0);  // match everything
  any.priority = 1;
  ASSERT_TRUE((*t)->Insert(any).ok());
  EXPECT_TRUE((*t)->Lookup(mem::BitString(16, 0xFFFF)).hit);
  EXPECT_TRUE((*t)->Lookup(mem::BitString(16, 0x0000)).hit);
}

TEST_F(TableTest, TernaryEraseByIdentity) {
  auto t = CreateTable(Spec("acl", MatchKind::kTernary, 16), pool_, 1);
  ASSERT_TRUE(t.ok());
  Entry e = MakeEntry(0xAB00, 16, 1, 1);
  e.mask = mem::BitString(16, 0xFF00);
  e.priority = 5;
  ASSERT_TRUE((*t)->Insert(e).ok());
  ASSERT_TRUE((*t)->Erase(e).ok());
  EXPECT_FALSE((*t)->Lookup(mem::BitString(16, 0xAB12)).hit);
  EXPECT_FALSE((*t)->Erase(e).ok());
}

// --- selector ---------------------------------------------------------------------

TEST_F(TableTest, SelectorFlowStability) {
  auto t = CreateTable(Spec("ecmp", MatchKind::kSelector, 48, 128), pool_, 1);
  ASSERT_TRUE(t.ok());
  for (uint32_t b = 0; b < 8; ++b) {
    Entry e;
    e.key = mem::BitString(48, b);  // bucket index
    e.action_id = 1;
    e.action_data = mem::BitString(32, 100 + b);
    ASSERT_TRUE((*t)->Insert(e).ok());
  }
  mem::BitString flow_key(48, 0xDEADBEEF);
  uint64_t first = (*t)->Lookup(flow_key).action_data.ToUint64();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*t)->Lookup(flow_key).action_data.ToUint64(), first);
  }
}

TEST_F(TableTest, SelectorSpreadsAcrossBuckets) {
  auto t = CreateTable(Spec("ecmp", MatchKind::kSelector, 48, 128), pool_, 1);
  ASSERT_TRUE(t.ok());
  for (uint32_t b = 0; b < 8; ++b) {
    Entry e;
    e.key = mem::BitString(48, b);
    e.action_id = 1;
    e.action_data = mem::BitString(32, b);
    ASSERT_TRUE((*t)->Insert(e).ok());
  }
  std::set<uint64_t> picked;
  std::map<uint64_t, int> histogram;
  for (uint64_t f = 0; f < 1000; ++f) {
    uint64_t member =
        (*t)->Lookup(mem::BitString(48, f * 0x9E3779B9)).action_data
            .ToUint64();
    picked.insert(member);
    histogram[member]++;
  }
  EXPECT_EQ(picked.size(), 8u) << "all members should receive traffic";
  // No member should carry more than ~3x its fair share.
  for (const auto& [member, count] : histogram) {
    EXPECT_LT(count, 3 * 1000 / 8) << "member " << member;
  }
}

TEST_F(TableTest, SelectorMemberRemovalRebalances) {
  auto t = CreateTable(Spec("ecmp", MatchKind::kSelector, 48, 128), pool_, 1);
  ASSERT_TRUE(t.ok());
  for (uint32_t b = 0; b < 4; ++b) {
    Entry e;
    e.key = mem::BitString(48, b);
    e.action_id = 1;
    e.action_data = mem::BitString(32, b);
    ASSERT_TRUE((*t)->Insert(e).ok());
  }
  Entry gone;
  gone.key = mem::BitString(48, 2);
  ASSERT_TRUE((*t)->Erase(gone).ok());
  for (uint64_t f = 0; f < 200; ++f) {
    uint64_t member =
        (*t)->Lookup(mem::BitString(48, f)).action_data.ToUint64();
    EXPECT_NE(member, 2u);
  }
}

TEST_F(TableTest, SelectorEmptyMisses) {
  auto t = CreateTable(Spec("ecmp", MatchKind::kSelector, 48, 128), pool_, 1);
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE((*t)->Lookup(mem::BitString(48, 1)).hit);
}

// --- common ---------------------------------------------------------------------

TEST_F(TableTest, CreateRejectsBadSpecs) {
  EXPECT_FALSE(CreateTable(Spec("t", MatchKind::kExact, 0), pool_, 1).ok());
  TableSpec zero_size = Spec("t", MatchKind::kExact, 16);
  zero_size.size = 0;
  EXPECT_FALSE(CreateTable(zero_size, pool_, 1).ok());
}

TEST_F(TableTest, TernaryUsesTcamBlocks) {
  uint32_t tcam_before = pool_.UsedBlocks(mem::BlockKind::kTcam);
  auto t = CreateTable(Spec("acl", MatchKind::kTernary, 16), pool_, 1);
  ASSERT_TRUE(t.ok());
  EXPECT_GT(pool_.UsedBlocks(mem::BlockKind::kTcam), tcam_before);
}

TEST_F(TableTest, FreeStorageRecyclesPool) {
  uint32_t before = pool_.UsedBlocks(mem::BlockKind::kSram);
  auto t = CreateTable(Spec("t", MatchKind::kExact, 32, 2048), pool_, 7);
  ASSERT_TRUE(t.ok());
  EXPECT_GT(pool_.UsedBlocks(mem::BlockKind::kSram), before);
  (*t)->FreeStorage();
  EXPECT_EQ(pool_.UsedBlocks(mem::BlockKind::kSram), before);
}

// --- cached index vs pool-read reference -----------------------------------------
//
// The tables answer lookups from a decoded cache kept beside the software
// index; the pool rows stay the ground truth. These sweeps interleave
// Insert/Erase/Lookup and check every LookupResult bit-for-bit against a
// reference decoded straight from the pool rows (PeekRow), so a stale or
// mis-indexed cache entry cannot hide.

// One valid pool row, decoded independently of the tables' caches. Key
// widths in these tests are <= 64 so the key fits a uint64.
struct PoolRow {
  uint32_t row = 0;
  uint64_t key = 0;
  uint32_t prefix_len = 0;
  uint32_t action_id = 0;
  mem::BitString action_data;
  uint64_t mask = 0;  // ternary: mask plane restricted to the key bits
};

std::vector<PoolRow> DumpPoolRows(const MatchTable& t, const mem::Pool& pool) {
  const TableSpec& spec = t.spec();
  std::vector<PoolRow> rows;
  for (uint32_t r = 0; r < spec.size; ++r) {
    if (!t.storage().RowValid(pool, r)) continue;
    auto bits = t.storage().PeekRow(pool, r);
    if (!bits.ok()) {
      ADD_FAILURE() << bits.status().ToString();
      continue;
    }
    PoolRow pr;
    pr.row = r;
    pr.key = bits->GetBits(0, spec.key_width_bits);
    pr.prefix_len = static_cast<uint32_t>(bits->GetBits(spec.key_width_bits, 8));
    pr.action_id =
        static_cast<uint32_t>(bits->GetBits(spec.key_width_bits + 8, 16));
    pr.action_data = bits->Slice(spec.key_width_bits + 8 + 16,
                                 spec.action_data_width_bits);
    if (spec.match_kind == MatchKind::kTernary) {
      pr.mask = t.storage().ReadMask(pool, r).GetBits(0, spec.key_width_bits);
    }
    rows.push_back(pr);
  }
  return rows;
}

// `want == nullptr` means the reference says miss. Hits and misses both
// charge the bus cycles of one row fetch (kBusWidthBits is 256).
void ExpectMatchesReference(const MatchTable& t, const LookupResult& got,
                            const PoolRow* want) {
  EXPECT_EQ(got.access_cycles, t.storage().AccessCycles(256));
  if (want == nullptr) {
    EXPECT_FALSE(got.hit);
    EXPECT_EQ(got.action_id, t.spec().default_action_id);
    EXPECT_TRUE(got.action_data == t.spec().default_action_data);
  } else {
    EXPECT_TRUE(got.hit);
    EXPECT_EQ(got.action_id, want->action_id);
    EXPECT_TRUE(got.action_data == want->action_data)
        << "row " << want->row << ": cached action bits diverge from pool";
  }
}

Entry RandomActionEntry(uint64_t key, uint32_t key_width, util::Rng& rng) {
  Entry e = MakeEntry(key, key_width, 1 + rng.NextBelow(100), rng.Next());
  return e;
}

TEST_F(TableTest, ExactCachedLookupMatchesPoolReference) {
  auto t = CreateTable(Spec("t", MatchKind::kExact, 32, 128), pool_, 1);
  ASSERT_TRUE(t.ok());
  util::Rng rng(0xE1);
  std::vector<uint64_t> live;
  // Narrow 10-bit keyspace so inserts collide (update in place) and erases
  // find victims.
  auto random_key = [&rng] { return rng.NextBelow(1024); };
  for (int op = 0; op < 300; ++op) {
    if (live.size() >= 100 || (!live.empty() && rng.NextBelow(100) < 40)) {
      size_t victim = rng.NextBelow(live.size());
      ASSERT_TRUE((*t)->Erase(MakeEntry(live[victim], 32, 0, 0)).ok());
      live.erase(live.begin() + static_cast<long>(victim));
    } else {
      uint64_t key = random_key();
      ASSERT_TRUE((*t)->Insert(RandomActionEntry(key, 32, rng)).ok());
      if (std::find(live.begin(), live.end(), key) == live.end()) {
        live.push_back(key);
      }
    }
    std::vector<PoolRow> rows = DumpPoolRows(**t, pool_);
    ASSERT_EQ(rows.size(), live.size());
    for (int q = 0; q < 4; ++q) {
      uint64_t probe = random_key();
      const PoolRow* want = nullptr;
      for (const PoolRow& r : rows) {
        if (r.key == probe) want = &r;
      }
      ExpectMatchesReference(**t, (*t)->Lookup(mem::BitString(32, probe)),
                             want);
    }
  }
}

TEST_F(TableTest, LpmCachedLookupMatchesPoolReference) {
  auto t = CreateTable(Spec("fib", MatchKind::kLpm, 32, 128), pool_, 1);
  ASSERT_TRUE(t.ok());
  util::Rng rng(0x1B);
  struct Prefix {
    uint64_t key;
    uint32_t len;
  };
  std::vector<Prefix> live;
  for (int op = 0; op < 250; ++op) {
    if (live.size() >= 100 || (!live.empty() && rng.NextBelow(100) < 40)) {
      size_t victim = rng.NextBelow(live.size());
      Entry e = MakeEntry(live[victim].key, 32, 0, 0);
      e.prefix_len = live[victim].len;
      ASSERT_TRUE((*t)->Erase(e).ok());
      live.erase(live.begin() + static_cast<long>(victim));
    } else {
      uint32_t len = static_cast<uint32_t>(rng.NextInRange(0, 32));
      // Keys drawn from a small set of bases so prefixes nest and collide.
      uint64_t key = (rng.NextBelow(8) * 0x21212121ull) & 0xFFFFFFFFull;
      if (len < 32) key &= ~((1ull << (32 - len)) - 1);
      Entry e = RandomActionEntry(key, 32, rng);
      e.prefix_len = len;
      ASSERT_TRUE((*t)->Insert(e).ok());
      bool present = false;
      for (auto& p : live) present |= (p.key == key && p.len == len);
      if (!present) live.push_back({key, len});
    }
    std::vector<PoolRow> rows = DumpPoolRows(**t, pool_);
    ASSERT_EQ(rows.size(), live.size());
    for (int q = 0; q < 4; ++q) {
      uint64_t probe = q % 2 == 0 ? (rng.NextBelow(8) * 0x21212121ull +
                                     rng.NextBelow(256)) & 0xFFFFFFFFull
                                  : rng.Next() & 0xFFFFFFFFull;
      // Reference: the rows store the prefix length, so longest-prefix
      // selection needs nothing but the pool contents.
      const PoolRow* want = nullptr;
      for (const PoolRow& r : rows) {
        uint64_t m = r.prefix_len == 0
                         ? 0
                         : ~((r.prefix_len == 32
                                  ? 0ull
                                  : (1ull << (32 - r.prefix_len)) - 1)) &
                               0xFFFFFFFFull;
        if ((probe & m) != (r.key & m)) continue;
        if (want == nullptr || r.prefix_len > want->prefix_len) want = &r;
      }
      ExpectMatchesReference(**t, (*t)->Lookup(mem::BitString(32, probe)),
                             want);
    }
  }
}

TEST_F(TableTest, TernaryCachedLookupMatchesPoolReference) {
  auto t = CreateTable(Spec("acl", MatchKind::kTernary, 32, 64), pool_, 1);
  ASSERT_TRUE(t.ok());
  util::Rng rng(0x7E);
  // Pool rows do not store priority or insertion order, so the reference
  // keeps a shadow of both; the action bits are still checked against the
  // pool rows.
  struct Shadow {
    uint64_t mask;
    uint64_t masked_key;
    uint32_t priority;
    uint64_t seq;
  };
  std::vector<Shadow> live;
  uint64_t next_seq = 0;
  const uint64_t kMasks[] = {0xFFFFFFFFull, 0xFFFFFF00ull, 0xFFFF0000ull,
                             0xFF00FF00ull};
  for (int op = 0; op < 250; ++op) {
    if (live.size() >= 48 || (!live.empty() && rng.NextBelow(100) < 40)) {
      size_t victim = rng.NextBelow(live.size());
      Entry e = MakeEntry(live[victim].masked_key, 32, 0, 0);
      e.mask = mem::BitString(32, live[victim].mask);
      ASSERT_TRUE((*t)->Erase(e).ok());
      live.erase(live.begin() + static_cast<long>(victim));
    } else {
      uint64_t mask = kMasks[rng.NextBelow(4)];
      uint64_t key = rng.NextBelow(16) * 0x01010457ull;
      Entry e = RandomActionEntry(key & 0xFFFFFFFFull, 32, rng);
      e.mask = mem::BitString(32, mask);
      e.priority = static_cast<uint32_t>(rng.NextBelow(8));
      ASSERT_TRUE((*t)->Insert(e).ok());
      bool updated = false;
      for (auto& s : live) {
        // Same (mask, key&mask) identity updates in place: the entry keeps
        // its original priority and position.
        updated |= (s.mask == mask && s.masked_key == (e.key.ToUint64() & mask));
      }
      if (!updated) {
        live.push_back({mask, e.key.ToUint64() & mask, e.priority, next_seq++});
      }
    }
    std::vector<PoolRow> rows = DumpPoolRows(**t, pool_);
    ASSERT_EQ(rows.size(), live.size());
    for (int q = 0; q < 4; ++q) {
      uint64_t probe = (rng.NextBelow(16) * 0x01010457ull +
                        (q % 2 == 0 ? 0 : rng.NextBelow(1 << 16))) &
                       0xFFFFFFFFull;
      const Shadow* winner = nullptr;
      for (const Shadow& s : live) {
        if ((probe & s.mask) != s.masked_key) continue;
        if (winner == nullptr || s.priority > winner->priority ||
            (s.priority == winner->priority && s.seq < winner->seq)) {
          winner = &s;
        }
      }
      const PoolRow* want = nullptr;
      if (winner != nullptr) {
        for (const PoolRow& r : rows) {
          if (r.mask == winner->mask &&
              (r.key & r.mask) == winner->masked_key) {
            want = &r;
          }
        }
        ASSERT_NE(want, nullptr) << "shadow entry missing from pool";
      }
      ExpectMatchesReference(**t, (*t)->Lookup(mem::BitString(32, probe)),
                             want);
    }
  }
}

TEST_F(TableTest, SelectorCachedLookupMatchesPoolReference) {
  auto t = CreateTable(Spec("ecmp", MatchKind::kSelector, 32, 64), pool_, 1);
  ASSERT_TRUE(t.ok());
  util::Rng rng(0x5E);
  std::set<uint32_t> populated;
  for (int op = 0; op < 250; ++op) {
    if (populated.size() >= 32 ||
        (!populated.empty() && rng.NextBelow(100) < 40)) {
      auto it = populated.begin();
      std::advance(it, rng.NextBelow(populated.size()));
      Entry e;
      e.key = mem::BitString(32, *it);
      ASSERT_TRUE((*t)->Erase(e).ok());
      populated.erase(it);
    } else {
      uint32_t bucket = static_cast<uint32_t>(rng.NextBelow(64));
      Entry e = RandomActionEntry(bucket, 32, rng);
      ASSERT_TRUE((*t)->Insert(e).ok());
      populated.insert(bucket);
    }
    // DumpPoolRows visits rows in ascending order, matching the table's
    // sorted populated-row list.
    std::vector<PoolRow> rows = DumpPoolRows(**t, pool_);
    ASSERT_EQ(rows.size(), populated.size());
    for (int q = 0; q < 4; ++q) {
      mem::BitString probe(32, rng.Next());
      const PoolRow* want = nullptr;
      if (!rows.empty()) {
        want = &rows[util::Crc32(probe.bytes()) % rows.size()];
      }
      ExpectMatchesReference(**t, (*t)->Lookup(probe), want);
    }
  }
}

// A hit charges the pool's read counters exactly like the old row fetch did
// (one read per grid column); a miss performs no pool reads at all.
TEST_F(TableTest, CachedHitStillChargesPoolReads) {
  auto t = CreateTable(Spec("t", MatchKind::kExact, 32), pool_, 1);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*t)->Insert(MakeEntry(7, 32, 1, 9)).ok());
  auto total_reads = [&] {
    uint64_t sum = 0;
    for (uint32_t id : (*t)->storage().block_ids()) {
      sum += pool_.block(id).reads();
    }
    return sum;
  };
  uint64_t before = total_reads();
  EXPECT_TRUE((*t)->Lookup(mem::BitString(32, 7)).hit);
  uint64_t after_hit = total_reads();
  EXPECT_GT(after_hit, before);
  EXPECT_FALSE((*t)->Lookup(mem::BitString(32, 8)).hit);
  EXPECT_EQ(total_reads(), after_hit);
}

// --- large-spec construction ----------------------------------------------------
//
// TableSpec is moved into the MatchTable base before subclass members
// initialize; every subclass sizes its row-indexed vectors from the moved-to
// spec_. Sizes beyond TableSpec's default (1024) with rows actually landing
// past index 1024 would turn a constructor reading the moved-from spec into
// an out-of-bounds access (caught by the sanitizer job).

mem::PoolConfig LargePool() {
  mem::PoolConfig cfg;
  cfg.sram_blocks = 96;
  cfg.sram_width_bits = 128;
  cfg.sram_depth = 256;
  cfg.tcam_blocks = 40;
  cfg.tcam_width_bits = 128;
  cfg.tcam_depth = 64;
  return cfg;
}

TEST(TableLargeSpecTest, ExactFillsRowsPastDefaultCapacity) {
  mem::Pool pool(LargePool());
  auto t = CreateTable(Spec("t", MatchKind::kExact, 32, 2048), pool, 1);
  ASSERT_TRUE(t.ok());
  for (uint64_t k = 0; k < 2048; ++k) {
    ASSERT_TRUE((*t)->Insert(MakeEntry(k, 32, 1, k * 3)).ok());
  }
  EXPECT_EQ((*t)->FreeRows(), 0u);
  EXPECT_EQ((*t)->Insert(MakeEntry(99999, 32, 1, 0)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ((*t)->Lookup(mem::BitString(32, 2047)).action_data.ToUint64(),
            2047u * 3);
  EXPECT_EQ((*t)->Lookup(mem::BitString(32, 5)).action_data.ToUint64(), 15u);
}

TEST(TableLargeSpecTest, SelectorAddressesHighBuckets) {
  mem::Pool pool(LargePool());
  auto t = CreateTable(Spec("ecmp", MatchKind::kSelector, 32, 2048), pool, 1);
  ASSERT_TRUE(t.ok());
  // Bucket index maps directly to the row, so one insert exercises the
  // cache slot past the default size.
  Entry e = MakeEntry(2047, 32, 1, 0xC0FFEE);
  ASSERT_TRUE((*t)->Insert(e).ok());
  LookupResult r = (*t)->Lookup(mem::BitString(32, 0x1234));
  ASSERT_TRUE(r.hit);
  EXPECT_EQ(r.action_data.ToUint64(), 0xC0FFEEu);
  EXPECT_EQ((*t)->Insert(MakeEntry(2048, 32, 1, 0)).code(),
            StatusCode::kOutOfRange);
}

TEST(TableLargeSpecTest, TernaryFillsRowsPastDefaultCapacity) {
  mem::Pool pool(LargePool());
  auto t = CreateTable(Spec("acl", MatchKind::kTernary, 32, 2048), pool, 1);
  ASSERT_TRUE(t.ok());
  Entry e;
  e.mask = mem::BitString(32, 0xFFFFFFFF);
  e.action_id = 1;
  for (uint64_t k = 0; k < 1200; ++k) {
    e.key = mem::BitString(32, k);
    e.priority = static_cast<uint32_t>(k % 5);
    e.action_data = mem::BitString(32, k + 1);
    ASSERT_TRUE((*t)->Insert(e).ok());
  }
  EXPECT_EQ((*t)->entry_count(), 1200u);
  EXPECT_EQ((*t)->Lookup(mem::BitString(32, 1199)).action_data.ToUint64(),
            1200u);
  EXPECT_EQ((*t)->Lookup(mem::BitString(32, 0)).action_data.ToUint64(), 1u);
}

TEST(TableLargeSpecTest, LpmFillsRowsPastDefaultCapacity) {
  mem::Pool pool(LargePool());
  // 16-bit keys keep the per-insert stride rebuild cheap while still
  // pushing rows past index 1024.
  auto t = CreateTable(Spec("fib", MatchKind::kLpm, 16, 2048), pool, 1);
  ASSERT_TRUE(t.ok());
  for (uint64_t k = 0; k < 1100; ++k) {
    Entry e = MakeEntry(k, 16, 1, k + 1);
    e.prefix_len = 16;
    ASSERT_TRUE((*t)->Insert(e).ok());
  }
  EXPECT_EQ((*t)->entry_count(), 1100u);
  EXPECT_EQ((*t)->Lookup(mem::BitString(16, 1099)).action_data.ToUint64(),
            1100u);
  EXPECT_EQ((*t)->Lookup(mem::BitString(16, 42)).action_data.ToUint64(), 43u);
  EXPECT_FALSE((*t)->Lookup(mem::BitString(16, 2000)).hit);
}

// --- RCU reader pins -------------------------------------------------------

// Flags its own deletion, so a test can watch the grace period end.
struct RetireProbe {
  bool* freed;
  ~RetireProbe() { *freed = true; }
};

// Devices pin once per packet batch and every lookup pins again inside it.
// The inner pair must only move the depth: after an inner Unpin the slot
// stays pinned, and a view retired under the outer pin (before or after the
// inner pair) is freed only after the outermost Unpin.
TEST(RcuDomainTest, NestedPinsReleaseAtTheOutermostUnpin) {
  rcu::Domain& domain = rcu::Domain::Global();
  bool under_both = false;
  bool under_outer = false;

  domain.Pin();  // the batch
  domain.Pin();  // a lookup inside it
  domain.Retire(new RetireProbe{&under_both});
  domain.Unpin();
  domain.Retire(new RetireProbe{&under_outer});
  domain.Synchronize();
  domain.Synchronize();
  EXPECT_FALSE(under_both) << "inner Unpin released the outer pin";
  EXPECT_FALSE(under_outer) << "inner Unpin released the outer pin";

  {
    rcu::Domain::ReadGuard nested(domain);  // nests under the batch pin too
  }
  domain.Synchronize();
  EXPECT_FALSE(under_both);
  EXPECT_FALSE(under_outer);

  domain.Unpin();  // the batch ends
  domain.Synchronize();
  EXPECT_TRUE(under_both);
  EXPECT_TRUE(under_outer);
}

}  // namespace
}  // namespace ipsa::table
