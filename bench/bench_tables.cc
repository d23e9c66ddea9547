// Per-kind table lookup micro-benchmark with a heap-allocation counter, and
// a per-op write row.
//
// The lookup hot path is designed to be allocation-free in steady state:
// SBO BitStrings, decoded-entry caches, and in-place LookupInto against a
// reused LookupScratch. This binary measures ns/lookup for each match kind
// and — via global operator new/delete counting — asserts the number of
// heap allocations per steady-state lookup is exactly zero.
//
// The write row times one unbatched upsert (one publication and one RCU
// grace period, as a runtime-API AddEntry outside a batch) into a table that
// already holds N entries, per kind and N. A write should cost what it
// changes, not what the table holds.
//
//   bench_tables           full run, prints a table per match kind
//   bench_tables --smoke   CI gate: exit 1 if any kind allocates per lookup,
//                          or if a selector upsert into a 256-member group
//                          costs more than 2x one into an 8-member group
//
// Hand-rolled timing (min of interleaved rounds) instead of
// google-benchmark because the deliverable includes an exit code and an
// allocation count, not just a time.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "mem/pool.h"
#include "table/table.h"
#include "util/rng.h"

// --- global allocation counter ---------------------------------------------

static std::atomic<uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ipsa {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kKeyWidth = 32;
constexpr uint32_t kActionWidth = 64;
constexpr uint32_t kEntries = 256;
constexpr uint32_t kTableSize = 1024;

mem::PoolConfig BenchPool() {
  mem::PoolConfig cfg;
  cfg.sram_blocks = 128;
  cfg.sram_width_bits = 128;
  cfg.sram_depth = 1024;
  cfg.tcam_blocks = 32;
  cfg.tcam_width_bits = 128;
  cfg.tcam_depth = 512;
  return cfg;
}

table::TableSpec Spec(table::MatchKind kind) {
  table::TableSpec spec;
  spec.name = std::string(table::MatchKindName(kind));
  spec.match_kind = kind;
  spec.key_width_bits = kKeyWidth;
  spec.action_data_width_bits = kActionWidth;
  spec.size = kTableSize;
  spec.default_action_data = mem::BitString(kActionWidth, 0xDEAD);
  return spec;
}

Status Populate(table::MatchTable& t, table::MatchKind kind, util::Rng& rng,
                std::vector<mem::BitString>& inserted_keys) {
  for (uint32_t i = 0; i < kEntries; ++i) {
    table::Entry e;
    e.action_id = 1 + (i % 7);
    e.action_data = mem::BitString(kActionWidth, rng.Next());
    switch (kind) {
      case table::MatchKind::kExact:
        e.key = mem::BitString(kKeyWidth, rng.Next());
        break;
      case table::MatchKind::kLpm: {
        e.key = mem::BitString(kKeyWidth, rng.Next() << 8);
        e.prefix_len = 8 + (i % 17);
        break;
      }
      case table::MatchKind::kTernary: {
        e.key = mem::BitString(kKeyWidth, rng.Next());
        // A handful of distinct masks so the bucket index has real work.
        static const uint64_t kMasks[] = {0xFFFFFFFFu, 0xFFFFFF00u,
                                          0xFFFF0000u, 0xFF00FF00u};
        e.mask = mem::BitString(kKeyWidth, kMasks[i % 4]);
        e.priority = i % 11;
        break;
      }
      case table::MatchKind::kSelector:
        e.key = mem::BitString(kKeyWidth, i % kTableSize);
        break;
    }
    Status s = t.Insert(e);
    // Duplicate random exact keys / LPM prefixes just update in place.
    if (!s.ok()) return s;
    inserted_keys.push_back(e.key);
  }
  return OkStatus();
}

struct KindReport {
  std::string name;
  double ns_per_lookup = 0;
  uint64_t allocs_per_million = 0;  // allocations across 1e6 lookups
  uint64_t hits = 0;
};

KindReport MeasureKind(table::MatchKind kind, bool smoke) {
  KindReport rep;
  rep.name = std::string(table::MatchKindName(kind));

  mem::Pool pool(BenchPool());
  auto t = table::CreateTable(Spec(kind), pool, 1);
  if (!t.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", t.status().ToString().c_str());
    std::exit(2);
  }
  util::Rng rng(0x195A + static_cast<uint64_t>(kind));
  std::vector<mem::BitString> inserted;
  if (Status s = Populate(**t, kind, rng, inserted); !s.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", s.ToString().c_str());
    std::exit(2);
  }

  // Probe keys: inserted keys (hits) alternating with random ones (mostly
  // misses) — both paths must be allocation-free.
  std::vector<mem::BitString> keys;
  keys.reserve(1024);
  util::Rng probe_rng(7);
  for (uint32_t i = 0; i < 1024; ++i) {
    if (i % 2 == 0) {
      keys.push_back(inserted[(i / 2) % inserted.size()]);
    } else {
      keys.emplace_back(kKeyWidth, probe_rng.Next());
    }
  }

  table::LookupScratch scratch;
  // Warm up: first lookups size the scratch capacity; not steady state.
  for (uint32_t i = 0; i < 64; ++i) {
    (*t)->LookupInto(keys[i % keys.size()], scratch.result);
  }

  const uint64_t iters = smoke ? 200'000 : 1'000'000;

  // Allocation count over the steady-state window.
  uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  uint64_t hits = 0;
  for (uint64_t i = 0; i < iters; ++i) {
    (*t)->LookupInto(keys[i & 1023], scratch.result);
    hits += scratch.result.hit ? 1 : 0;
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) -
                    allocs_before;
  rep.allocs_per_million = allocs * 1'000'000 / iters;
  rep.hits = hits;

  // Timing: min of rounds, interleaved-round style noise rejection.
  const int rounds = smoke ? 3 : 5;
  const uint64_t timed_iters = smoke ? 100'000 : 500'000;
  double best_ns = 1e18;
  for (int r = 0; r < rounds; ++r) {
    auto t0 = Clock::now();
    for (uint64_t i = 0; i < timed_iters; ++i) {
      (*t)->LookupInto(keys[i & 1023], scratch.result);
    }
    auto t1 = Clock::now();
    double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(timed_iters);
    if (ns < best_ns) best_ns = ns;
  }
  rep.ns_per_lookup = best_ns;
  return rep;
}

// --- per-op writes -----------------------------------------------------------

// The i-th of `held` distinct entries of `kind` (keys spread evenly over the
// key space; LPM routes are /32s one per top-bit slot, as in bench_control's
// big LPM table).
table::Entry WriteEntry(table::MatchKind kind, uint32_t i, uint32_t held,
                        uint64_t data) {
  table::Entry e;
  e.action_id = 1;
  e.action_data = mem::BitString(kActionWidth, data);
  const uint32_t spread = held > 1 ? 32 - std::countr_zero(std::bit_ceil(held))
                                   : 32;
  switch (kind) {
    case table::MatchKind::kExact:
      e.key = mem::BitString(kKeyWidth, i * 2654435761u);
      break;
    case table::MatchKind::kLpm:
      e.key = mem::BitString(kKeyWidth, uint64_t{i} << spread);
      e.prefix_len = kKeyWidth;
      break;
    case table::MatchKind::kTernary:
      e.key = mem::BitString(kKeyWidth, i);
      e.mask = mem::BitString(kKeyWidth, 0xFFFFFFFFu);
      e.priority = i % 11;
      break;
    case table::MatchKind::kSelector:
      e.key = mem::BitString(kKeyWidth, i);
      break;
  }
  return e;
}

// ns per unbatched upsert of an entry a `held`-entry table already holds
// (min of interleaved rounds); with `modify`, per erase + re-insert pair,
// which is how the daemon applies a kModify op. The fill runs as one batch.
double WriteNsPerOp(table::MatchKind kind, uint32_t held, bool smoke,
                    bool modify = false) {
  mem::PoolConfig cfg = BenchPool();
  cfg.sram_blocks += held / cfg.sram_depth;
  mem::Pool pool(cfg);
  table::TableSpec spec = Spec(kind);
  spec.size = std::max(held, kTableSize);
  auto t = table::CreateTable(spec, pool, 1);
  if (!t.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", t.status().ToString().c_str());
    std::exit(2);
  }
  (*t)->BeginBatch();
  for (uint32_t i = 0; i < held; ++i) {
    if (Status s = (*t)->Insert(WriteEntry(kind, i, held, i)); !s.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", s.ToString().c_str());
      std::exit(2);
    }
  }
  (*t)->EndBatch();

  const uint32_t ops = held > 4096 ? 256 : 2048;
  std::vector<table::Entry> writes;
  for (uint32_t k = 0; k < ops; ++k) {
    writes.push_back(WriteEntry(kind, (k * 7) % held, held, 0xC0DE + k));
  }
  const int rounds = smoke ? 3 : 5;
  double best_ns = 1e18;
  for (int r = 0; r < rounds; ++r) {
    auto t0 = Clock::now();
    for (const table::Entry& e : writes) {
      if (modify && !(*t)->Erase(e).ok()) std::exit(2);
      if (!(*t)->Insert(e).ok()) std::exit(2);
    }
    auto t1 = Clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        ops;
    best_ns = std::min(best_ns, ns);
  }
  return best_ns;
}

// The write row: per kind, an upsert into 8 and into 256 held entries,
// plus LPM at bench_control's 65536-entry scale. Returns false when the
// selector gate fails.
bool RunWrites(bool smoke) {
  const table::MatchKind kinds[] = {
      table::MatchKind::kExact, table::MatchKind::kLpm,
      table::MatchKind::kTernary, table::MatchKind::kSelector};
  std::printf("\n%-10s %16s %16s %8s\n", "kind", "ns/write N=8",
              "ns/write N=256", "ratio");
  double selector_ratio = 0;
  for (table::MatchKind kind : kinds) {
    const double small = WriteNsPerOp(kind, 8, smoke);
    const double large = WriteNsPerOp(kind, 256, smoke);
    std::printf("%-10s %16.1f %16.1f %8.2f\n",
                std::string(table::MatchKindName(kind)).c_str(), small, large,
                large / small);
    if (kind == table::MatchKind::kSelector) selector_ratio = large / small;
  }
  if (!smoke) {
    // bench_control's big LPM table: one upsert, and the erase + insert
    // pair its batched kModify ops cost in process.
    std::printf("%-10s %16s %16.1f   (N=65536, bench_control's big LPM)\n",
                "lpm", "",
                WriteNsPerOp(table::MatchKind::kLpm, 65536, smoke));
    std::printf("%-10s %16s %16.1f   (N=65536, erase + insert)\n",
                "lpm", "",
                WriteNsPerOp(table::MatchKind::kLpm, 65536, smoke, true));
  }
  const bool ok = selector_ratio <= 2.0;
  std::printf("%s: selector upsert into 256 members costs %.2fx one into 8 "
              "(gate <= 2x)\n",
              ok ? "OK" : "FAIL", selector_ratio);
  return ok;
}

int Run(bool smoke) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "WARNING: bench_tables was built without NDEBUG (a Debug "
               "build). Numbers are meaningless; configure with "
               "-DCMAKE_BUILD_TYPE=Release.\n");
  if (smoke) {
    std::fprintf(stderr, "--smoke refuses to gate on a Debug build.\n");
    return 1;
  }
#endif
  const table::MatchKind kinds[] = {
      table::MatchKind::kExact, table::MatchKind::kLpm,
      table::MatchKind::kTernary, table::MatchKind::kSelector};
  std::printf("%-10s %14s %22s %12s\n", "kind", "ns/lookup",
              "allocs/1e6 lookups", "hits");
  bool clean = true;
  for (table::MatchKind kind : kinds) {
    KindReport rep = MeasureKind(kind, smoke);
    std::printf("%-10s %14.1f %22llu %12llu\n", rep.name.c_str(),
                rep.ns_per_lookup,
                static_cast<unsigned long long>(rep.allocs_per_million),
                static_cast<unsigned long long>(rep.hits));
    if (rep.allocs_per_million != 0) clean = false;
  }
  if (!clean) {
    std::fprintf(stderr,
                 "FAIL: steady-state lookups performed heap allocations\n");
    return 1;
  }
  std::printf("OK: 0 heap allocations per steady-state lookup, all kinds\n");
  return RunWrites(smoke) ? 0 : 1;
}

}  // namespace
}  // namespace ipsa

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  return ipsa::Run(smoke);
}
