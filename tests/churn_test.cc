// Randomized concurrent churn: a writer thread streams inserts/erases while
// reader threads look up continuously, asserting every hit returns either
// the old or the new decoded entry — never a torn one. Exercises the RCU
// entry-publication path at two levels:
//  * table-level, per match kind (exact/lpm/ternary/selector), with payload
//    tags that make torn or cross-entry reads self-evident;
//  * device-level, toggling a live route under packet processing on both
//    architectures, interpreter and compiled/specialized paths alike.
// Run under TSan (IPSA_SANITIZE=thread) this doubles as the data-race gate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "controller/baseline.h"
#include "controller/designs.h"
#include "daemon/backends.h"
#include "net/packet_builder.h"
#include "table/table.h"
#include "util/hash.h"
#include "util/rng.h"

namespace ipsa {
namespace {

// --- table-level churn -------------------------------------------------------

// Payload tag: (key index << 16) | version. A hit whose tag does not decode
// back to a known key index can only come from a torn or dangling read.
uint64_t Tag(uint32_t key_index, uint32_t version) {
  return (static_cast<uint64_t>(key_index) << 16) | (version & 0xFFFF);
}

uint64_t KeyValueFor(table::MatchKind kind, uint32_t key_index) {
  // LPM keys sit in a routable-looking range; others use the index directly.
  return kind == table::MatchKind::kLpm ? 0x0A000000ull + key_index
                                        : key_index;
}

table::Entry ChurnEntry(table::MatchKind kind, uint32_t key_width,
                        uint32_t key_index, uint32_t version) {
  table::Entry e;
  e.key = mem::BitString(key_width, KeyValueFor(kind, key_index));
  if (kind == table::MatchKind::kLpm) e.prefix_len = key_width;
  if (kind == table::MatchKind::kTernary) {
    e.mask = mem::BitString(key_width, key_width >= 64
                                           ? ~0ull
                                           : (1ull << key_width) - 1);
    e.priority = 1;
  }
  e.action_id = 1;
  e.action_data = mem::BitString(32, Tag(key_index, version));
  return e;
}

struct ChurnFailure {
  std::atomic<bool> failed{false};
  std::string detail;  // written once, guarded by `failed` CAS

  void Record(const std::string& what) {
    bool expected = false;
    if (failed.compare_exchange_strong(expected, true)) detail = what;
  }
};

void RunTableChurn(table::MatchKind kind, uint32_t key_width, uint32_t nkeys,
                   uint32_t spec_size, uint32_t writer_ops) {
  mem::PoolConfig cfg;
  cfg.sram_blocks = 64;
  cfg.sram_width_bits = 128;
  cfg.sram_depth = 256;
  cfg.tcam_blocks = 16;
  cfg.tcam_width_bits = 128;
  cfg.tcam_depth = 64;
  mem::Pool pool(cfg);

  table::TableSpec spec;
  spec.name = "churn";
  spec.match_kind = kind;
  spec.key_width_bits = key_width;
  spec.action_data_width_bits = 32;
  spec.size = spec_size;
  auto created = table::CreateTable(spec, pool, 1);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  table::MatchTable& t = **created;

  // Seed half the key space so readers hit from the first iteration.
  for (uint32_t k = 0; k < nkeys; k += 2) {
    ASSERT_TRUE(t.Insert(ChurnEntry(kind, key_width, k, 0)).ok());
  }

  std::atomic<bool> done{false};
  ChurnFailure failure;

  auto reader = [&](uint64_t seed) {
    util::Rng rng(seed);
    table::LookupResult r;
    mem::BitString key;
    while (!done.load(std::memory_order_acquire) &&
           !failure.failed.load(std::memory_order_relaxed)) {
      uint32_t k = static_cast<uint32_t>(rng.NextBelow(nkeys));
      // Selector lookups hash an arbitrary flow key onto a member; other
      // kinds look up a key the writer owns.
      key = kind == table::MatchKind::kSelector
                ? mem::BitString(key_width, rng.Next())
                : mem::BitString(key_width, KeyValueFor(kind, k));
      t.LookupInto(key, r);
      if (!r.hit) continue;  // erased (or empty selector): a miss is valid
      uint64_t data = r.action_data.ToUint64();
      uint32_t tag_key = static_cast<uint32_t>(data >> 16);
      if (r.action_id != 1) {
        failure.Record("action_id " + std::to_string(r.action_id));
      } else if (kind == table::MatchKind::kSelector) {
        if (tag_key >= nkeys) {
          failure.Record("selector member tag " + std::to_string(data));
        }
      } else if (tag_key != k) {
        failure.Record("key " + std::to_string(k) + " returned tag for key " +
                       std::to_string(tag_key) + " (data " +
                       std::to_string(data) + ")");
      }
    }
  };

  std::thread r1(reader, 0xC0FFEEull);
  std::thread r2(reader, 0xF00D5ull);

  // The single writer streams upserts, strict adds and erases; every ~16th
  // burst goes through BeginBatch/EndBatch so deferred publication sees
  // concurrent readers too.
  util::Rng rng(0x5EED0000ull + static_cast<uint64_t>(kind));
  std::vector<uint32_t> version(nkeys, 1);
  for (uint32_t i = 0;
       i < writer_ops && !failure.failed.load(std::memory_order_relaxed);
       ++i) {
    bool batched = rng.NextBelow(16) == 0;
    if (batched) t.BeginBatch();
    uint32_t burst = batched ? 8 : 1;
    for (uint32_t b = 0; b < burst; ++b) {
      uint32_t k = static_cast<uint32_t>(rng.NextBelow(nkeys));
      uint64_t roll = rng.NextBelow(10);
      if (roll < 6) {
        ASSERT_TRUE(
            t.Insert(ChurnEntry(kind, key_width, k, version[k]++)).ok());
      } else if (roll < 8) {
        // Strict add: succeeds only when the key is absent; a duplicate must
        // leave the published entry untouched.
        Status s = t.InsertUnique(ChurnEntry(kind, key_width, k, version[k]));
        if (s.ok()) {
          version[k]++;
        } else {
          ASSERT_EQ(s.code(), StatusCode::kAlreadyExists) << s.ToString();
        }
      } else {
        (void)t.Erase(ChurnEntry(kind, key_width, k, 0));  // miss is fine
      }
    }
    if (batched) t.EndBatch();
  }

  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  ASSERT_FALSE(failure.failed.load()) << "torn lookup: " << failure.detail;
}

TEST(TableChurnTest, ExactOldOrNewNeverTorn) {
  RunTableChurn(table::MatchKind::kExact, 32, 512, 512, 20000);
}

TEST(TableChurnTest, LpmOldOrNewNeverTorn) {
  RunTableChurn(table::MatchKind::kLpm, 32, 256, 256, 6000);
}

TEST(TableChurnTest, TernaryOldOrNewNeverTorn) {
  RunTableChurn(table::MatchKind::kTernary, 32, 128, 128, 8000);
}

TEST(TableChurnTest, SelectorOldOrNewNeverTorn) {
  RunTableChurn(table::MatchKind::kSelector, 48, 16, 64, 12000);
}

// A selector group grown from 0 to 64 members by single writes and shrunk
// back by single erases, under concurrent readers. Members are published as
// pointers to immutable decoded members, so this checks that a reader only
// ever sees a whole group that existed: growing from bucket 0 makes groups
// {0..n-1}, shrinking from bucket 0 makes groups {j..63}, and a flow whose
// key hashes to h picks position h % size of its group. Every hit must be
// that pick for one of those groups, and carry its own bucket's payload.
TEST(TableChurnTest, SelectorGroupGrowsAndShrinksByWholeGroups) {
  constexpr uint32_t kMembers = 64;
  constexpr uint32_t kKeyWidth = 48;
  constexpr int kCycles = 30;
  mem::PoolConfig cfg;
  cfg.sram_blocks = 8;
  cfg.sram_width_bits = 128;
  cfg.sram_depth = 256;
  mem::Pool pool(cfg);
  table::TableSpec spec;
  spec.name = "grow";
  spec.match_kind = table::MatchKind::kSelector;
  spec.key_width_bits = kKeyWidth;
  spec.action_data_width_bits = 32;
  spec.size = kMembers;
  auto created = table::CreateTable(spec, pool, 1);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  table::MatchTable& t = **created;

  auto existed = [](uint32_t h, uint32_t bucket) {
    for (uint32_t n = bucket + 1; n <= kMembers; ++n) {
      if (h % n == bucket) return true;  // grow group {0..n-1}
    }
    for (uint32_t j = 0; j <= bucket; ++j) {
      if (j + h % (kMembers - j) == bucket) return true;  // shrink {j..63}
    }
    return false;
  };

  std::atomic<bool> done{false};
  std::atomic<uint64_t> hits{0};
  ChurnFailure failure;
  auto reader = [&](uint64_t seed) {
    util::Rng rng(seed);
    table::LookupResult r;
    mem::BitString key;
    while (!done.load(std::memory_order_acquire) &&
           !failure.failed.load(std::memory_order_relaxed)) {
      key = mem::BitString(kKeyWidth, rng.Next());
      t.LookupInto(key, r);
      if (!r.hit) continue;  // the empty group between cycles
      hits.fetch_add(1, std::memory_order_relaxed);
      const uint32_t tag_bucket =
          static_cast<uint32_t>(r.action_data.ToUint64() >> 16);
      const uint32_t h = util::Crc32(key.bytes());
      if (r.action_id != 1 || tag_bucket != r.row || r.row >= kMembers) {
        failure.Record("member at bucket " + std::to_string(r.row) +
                       " carries bucket " + std::to_string(tag_bucket) +
                       "'s payload");
      } else if (!existed(h, r.row)) {
        failure.Record("hash " + std::to_string(h) + " picked bucket " +
                       std::to_string(r.row) + ", in no group that existed");
      }
    }
  };
  std::thread r1(reader, 0x6120ull);
  std::thread r2(reader, 0x5112ull);

  // At least kCycles, and on until the readers have seen a fair number of
  // hits (bounded, so a starved reader cannot stall the test).
  for (int cycle = 0;
       (cycle < kCycles || hits.load(std::memory_order_relaxed) < 2000) &&
       cycle < 100 * kCycles && !failure.failed.load(std::memory_order_relaxed);
       ++cycle) {
    const auto version = static_cast<uint32_t>(cycle);
    for (uint32_t b = 0; b < kMembers; ++b) {
      ASSERT_TRUE(t.Insert(ChurnEntry(table::MatchKind::kSelector, kKeyWidth,
                                      b, version))
                      .ok());
    }
    for (uint32_t b = 0; b < kMembers; ++b) {
      ASSERT_TRUE(t.Erase(ChurnEntry(table::MatchKind::kSelector, kKeyWidth,
                                     b, 0))
                      .ok());
    }
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  ASSERT_FALSE(failure.failed.load()) << failure.detail;
  EXPECT_EQ(t.entry_count(), 0u);
}

// Batch visibility under concurrent readers. Each round the writer opens a
// batch, upserts every key to the round's version, raises `mid` to that
// version, waits for readers to look up, lowers `mid` and ends the batch. A
// lookup bracketed by two reads of the same raised `mid` ran after the
// round's ops and before its EndBatch, so it must see the pre-batch version
// (lpm, selector, ternary) or the round's own version (exact, whose ops are
// visible as they land).
void RunBatchVisibilityChurn(table::MatchKind kind, uint32_t key_width,
                             bool visible_as_ops_land) {
  constexpr uint32_t kKeys = 8;
  constexpr uint32_t kRounds = 100;
  mem::PoolConfig cfg;
  cfg.sram_blocks = 16;
  cfg.sram_width_bits = 128;
  cfg.sram_depth = 256;
  cfg.tcam_blocks = 4;
  cfg.tcam_width_bits = 128;
  cfg.tcam_depth = 64;
  mem::Pool pool(cfg);

  table::TableSpec spec;
  spec.name = "batch";
  spec.match_kind = kind;
  spec.key_width_bits = key_width;
  spec.action_data_width_bits = 32;
  spec.size = 64;
  auto created = table::CreateTable(spec, pool, 1);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  table::MatchTable& t = **created;
  for (uint32_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(t.Insert(ChurnEntry(kind, key_width, k, 0)).ok());
  }

  std::atomic<uint32_t> mid{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> checked{0};
  ChurnFailure failure;

  auto reader = [&](uint64_t seed) {
    util::Rng rng(seed);
    table::LookupResult r;
    mem::BitString key;
    while (!done.load(std::memory_order_acquire) &&
           !failure.failed.load(std::memory_order_relaxed)) {
      uint32_t k = static_cast<uint32_t>(rng.NextBelow(kKeys));
      key = kind == table::MatchKind::kSelector
                ? mem::BitString(key_width, rng.Next())
                : mem::BitString(key_width, KeyValueFor(kind, k));
      uint32_t m0 = mid.load(std::memory_order_acquire);
      t.LookupInto(key, r);
      uint32_t m1 = mid.load(std::memory_order_acquire);
      if (!r.hit) {
        failure.Record("miss on a key that is never erased");
        return;
      }
      if (m0 == 0 || m0 != m1) continue;
      uint32_t version = static_cast<uint32_t>(r.action_data.ToUint64()) &
                         0xFFFF;
      uint32_t want = visible_as_ops_land ? m0 : m0 - 1;
      if (version != want) {
        failure.Record("mid-batch lookup in round " + std::to_string(m0) +
                       " saw version " + std::to_string(version) +
                       ", want " + std::to_string(want));
        return;
      }
      checked.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::thread r1(reader, 0xBA7C4ull);
  std::thread r2(reader, 0x5EED5ull);
  for (uint32_t v = 1;
       v <= kRounds && !failure.failed.load(std::memory_order_relaxed); ++v) {
    t.BeginBatch();
    for (uint32_t k = 0; k < kKeys; ++k) {
      Status s = t.Insert(ChurnEntry(kind, key_width, k, v));
      if (!s.ok()) failure.Record("writer: " + s.ToString());
    }
    const uint64_t before = checked.load(std::memory_order_relaxed);
    mid.store(v, std::memory_order_release);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (checked.load(std::memory_order_relaxed) == before &&
           !failure.failed.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    mid.store(0, std::memory_order_release);
    t.EndBatch();
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  ASSERT_FALSE(failure.failed.load()) << failure.detail;
  EXPECT_GT(checked.load(), 0u) << "no lookup landed inside a batch";
}

TEST(TableChurnTest, ExactBatchOpsVisibleAsTheyLand) {
  RunBatchVisibilityChurn(table::MatchKind::kExact, 32, true);
}

TEST(TableChurnTest, LpmBatchVisibleOnlyAtEndBatch) {
  RunBatchVisibilityChurn(table::MatchKind::kLpm, 32, false);
}

TEST(TableChurnTest, TernaryBatchVisibleOnlyAtEndBatch) {
  RunBatchVisibilityChurn(table::MatchKind::kTernary, 32, false);
}

TEST(TableChurnTest, SelectorBatchVisibleOnlyAtEndBatch) {
  RunBatchVisibilityChurn(table::MatchKind::kSelector, 48, false);
}

// --- device-level churn ------------------------------------------------------

std::vector<rpc::TableOp> CollectBaselineOps(const compiler::ApiSpec& api) {
  std::vector<rpc::TableOp> ops;
  controller::AddEntryFn collect = [&ops](const std::string& table,
                                          const table::Entry& entry) {
    rpc::TableOp op;
    op.op = rpc::TableOpKind::kAdd;
    op.table = table;
    op.entry = entry;
    ops.push_back(std::move(op));
    return OkStatus();
  };
  controller::BaselineConfig config;
  EXPECT_TRUE(controller::PopulateBaseline(api, collect, config).ok());
  return ops;
}

net::Packet V4Packet(uint32_t dst_low, uint16_t sport) {
  controller::BaselineConfig config;
  return net::PacketBuilder()
      .Ethernet(net::MacAddr::FromUint64(config.router_mac_base),
                net::MacAddr::FromUint64(0x020000000001ull),
                net::kEtherTypeIpv4)
      .Ipv4(net::Ipv4Addr::FromString("192.168.0.1"),
            net::Ipv4Addr{0x0A000000 + dst_low}, net::kIpProtoUdp)
      .Udp(sport, 80)
      .Payload(32)
      .Build();
}

// A writer thread toggles the /32 route for one destination between two
// nexthops (upsert — no miss window) while the main thread keeps pushing
// packets for that destination. Every packet must egress on one of the two
// ports; anything else means a lookup observed a half-published entry.
void RunDeviceChurn(daemon::ArchKind arch, bool interpret) {
  auto backend = daemon::MakeBackend(arch);
  auto installed = backend->Install(rpc::InstallKind::kBaseP4,
                                    controller::designs::BaseP4());
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  auto api = backend->Api();
  ASSERT_TRUE(api.ok());

  std::vector<rpc::TableOp> ops = CollectBaselineOps(*api);
  for (const rpc::TableOp& op : ops) {
    ASSERT_TRUE(backend->ApplyTableOp(op).ok());
  }
  backend->SetExecMode(interpret ? arch::ExecMode::kInterpret
                               : arch::ExecMode::kSpecialize);

  controller::BaselineConfig config;
  constexpr uint32_t kDst = 4;      // host table covers only 0..3: LPM decides
  constexpr uint32_t kDonor = 5;    // same action, different nexthop
  const rpc::TableOp* route_a = nullptr;
  const rpc::TableOp* donor = nullptr;
  for (const rpc::TableOp& op : ops) {
    if (op.table != "ipv4_lpm" || op.entry.prefix_len != 32) continue;
    if (op.entry.key.ToUint64() == config.v4_dst_base + kDst) route_a = &op;
    if (op.entry.key.ToUint64() == config.v4_dst_base + kDonor) donor = &op;
  }
  ASSERT_NE(route_a, nullptr);
  ASSERT_NE(donor, nullptr);
  rpc::TableOp route_b = *route_a;
  route_b.entry.action_id = donor->entry.action_id;
  route_b.entry.action_data = donor->entry.action_data;

  const uint32_t port_a = config.PortOfNexthop(config.NexthopOf(kDst));
  const uint32_t port_b = config.PortOfNexthop(config.NexthopOf(kDonor));
  ASSERT_NE(port_a, port_b);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> toggles{0};
  ChurnFailure failure;
  std::thread writer([&] {
    bool flip = false;
    while (!done.load(std::memory_order_acquire)) {
      Status s = backend->ApplyTableOp(flip ? route_b : *route_a);
      if (!s.ok()) {
        failure.Record("writer: " + s.ToString());
        return;
      }
      flip = !flip;
      toggles.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Inject only after the writer's first toggle. The 400 packets can
  // otherwise all be forwarded before the writer thread is first scheduled
  // (a fast packet path on a loaded host), and then no lookup has raced a
  // publication at all.
  while (toggles.load(std::memory_order_relaxed) == 0 &&
         !failure.failed.load()) {
    std::this_thread::yield();
  }
  for (uint32_t i = 0; i < 400 && !failure.failed.load(); ++i) {
    auto tx = daemon::InjectAndDrain(*backend,
                                     V4Packet(kDst, static_cast<uint16_t>(
                                                        4000 + (i % 1024))),
                                     /*in_port=*/0);
    if (!tx.ok()) {
      failure.Record("inject: " + tx.status().ToString());
      break;
    }
    if (tx->size() != 1) {
      failure.Record("expected 1 tx packet, got " +
                     std::to_string(tx->size()));
      break;
    }
    uint32_t port = (*tx)[0].port;
    if (port != port_a && port != port_b) {
      failure.Record("egress port " + std::to_string(port) +
                     " is neither old (" + std::to_string(port_a) +
                     ") nor new (" + std::to_string(port_b) + ")");
      break;
    }
  }

  done.store(true, std::memory_order_release);
  writer.join();
  ASSERT_FALSE(failure.failed.load()) << failure.detail;
  EXPECT_GT(toggles.load(), 0u);
}

TEST(DeviceChurnTest, IpsaInterpreterOldOrNewRoute) {
  RunDeviceChurn(daemon::ArchKind::kIpsa, /*interpret=*/true);
}

TEST(DeviceChurnTest, IpsaSpecializedOldOrNewRoute) {
  RunDeviceChurn(daemon::ArchKind::kIpsa, /*interpret=*/false);
}

TEST(DeviceChurnTest, PisaInterpreterOldOrNewRoute) {
  RunDeviceChurn(daemon::ArchKind::kPisa, /*interpret=*/true);
}

TEST(DeviceChurnTest, PisaSpecializedOldOrNewRoute) {
  RunDeviceChurn(daemon::ArchKind::kPisa, /*interpret=*/false);
}

}  // namespace
}  // namespace ipsa
