// Randomized property suites over the core invariants:
//  * BitString operations against a reference bool-vector model
//  * packet insert/remove sequences preserve untouched bytes
//  * expr serde round-trips random expression trees
//  * logical tables round-trip random rows across arbitrary geometries
//  * ECMP selector balance under random member sets
//  * pbm/ipbm equivalence under random traffic AND random table churn
#include <gtest/gtest.h>

#include "arch/design.h"
#include "controller/baseline.h"
#include "controller/controller.h"
#include "controller/designs.h"
#include "mem/logical_table.h"
#include "net/workload.h"
#include "util/rng.h"

namespace ipsa {
namespace {

// --- BitString vs reference model ------------------------------------------------

class BitStringPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitStringPropertyTest, MatchesBoolVectorModel) {
  util::Rng rng(GetParam());
  size_t width = 1 + rng.NextBelow(300);
  mem::BitString s(width);
  std::vector<bool> model(width, false);
  for (int op = 0; op < 200; ++op) {
    switch (rng.NextBelow(4)) {
      case 0: {  // set single bit
        size_t i = rng.NextBelow(width);
        bool v = rng.NextBool();
        s.SetBit(i, v);
        model[i] = v;
        break;
      }
      case 1: {  // set bit run
        size_t off = rng.NextBelow(width);
        size_t len = 1 + rng.NextBelow(std::min<size_t>(64, width - off));
        uint64_t v = rng.Next();
        s.SetBits(off, len, v);
        for (size_t i = 0; i < len; ++i) model[off + i] = (v >> i) & 1;
        break;
      }
      case 2: {  // slice agrees
        size_t off = rng.NextBelow(width);
        size_t len = 1 + rng.NextBelow(width - off);
        mem::BitString slice = s.Slice(off, len);
        for (size_t i = 0; i < len; ++i) {
          ASSERT_EQ(slice.GetBit(i), model[off + i]) << "slice bit " << i;
        }
        break;
      }
      default: {  // full readback
        for (size_t i = 0; i < width; ++i) {
          ASSERT_EQ(s.GetBit(i), model[i]) << "bit " << i;
        }
      }
    }
  }
}

// Word(i) and GetBits read whole 64-bit words, so reads that straddle two
// words, or run past the width, must still agree with the bit model.
TEST_P(BitStringPropertyTest, WordReadsStraddleWordBoundaries) {
  util::Rng rng(GetParam());
  const size_t width = 65 + rng.NextBelow(240);
  mem::BitString s(width);
  std::vector<bool> model(width, false);
  for (size_t i = 0; i < width; i += 64) {
    const size_t len = std::min<size_t>(64, width - i);
    const uint64_t v = rng.Next();
    s.SetBits(i, len, v);
    for (size_t b = 0; b < len; ++b) model[i + b] = (v >> b) & 1;
  }
  auto expect = [&](size_t off, size_t len) {
    uint64_t v = 0;
    for (size_t b = 0; b < len; ++b) {
      if (off + b < width && model[off + b]) v |= uint64_t{1} << b;
    }
    return v;
  };
  for (int q = 0; q < 400; ++q) {
    const size_t len = 1 + rng.NextBelow(64);
    size_t off = rng.NextBelow(width + 8);
    if (q % 2 == 0) {
      // Straddle a word boundary inside the string.
      const size_t boundary = 64 * (1 + rng.NextBelow((width - 1) / 64));
      off = boundary - 1 - rng.NextBelow(std::min<size_t>(len, boundary));
    }
    ASSERT_EQ(s.GetBits(off, len), expect(off, len))
        << "off=" << off << " len=" << len << " width=" << width;
  }
  for (size_t i = 0; i < s.WordCount() + 2; ++i) {
    ASSERT_EQ(s.Word(i), expect(i * 64, 64)) << "word " << i;
  }
}

// Every bit at or above bit_width() reads as zero after a write that
// narrows a string whose old bits were all ones: a shrinking Resize,
// Assign from a wider string, and AssignWords.
TEST_P(BitStringPropertyTest, TailStaysZeroAfterShrinkingWrites) {
  util::Rng rng(GetParam());
  const size_t wide = 129 + rng.NextBelow(200);
  const size_t narrow = 1 + rng.NextBelow(wide - 1);
  mem::BitString ones(wide);
  for (size_t i = 0; i < wide; i += 64) ones.SetBits(i, 64, ~uint64_t{0});
  auto expect_ones_below = [&](const mem::BitString& s, size_t set,
                               const char* what) {
    ASSERT_EQ(s.bit_width(), narrow) << what;
    for (size_t i = 0; i < s.WordCount() + 1; ++i) {
      const size_t lo = i * 64;
      const uint64_t want =
          lo >= set ? 0
                    : (set - lo >= 64 ? ~uint64_t{0}
                                      : (uint64_t{1} << (set - lo)) - 1);
      ASSERT_EQ(s.Word(i), want) << what << " word " << i;
    }
  };

  mem::BitString resized = ones;
  resized.Resize(narrow);
  expect_ones_below(resized, 0, "Resize");

  mem::BitString assigned(narrow);
  assigned.Assign(ones);
  expect_ones_below(assigned, narrow, "Assign");

  // The words AssignWords takes: ones below `narrow`, zero from it up.
  std::vector<uint64_t> words((wide + 63) / 64, 0);
  for (size_t i = 0; i < narrow; ++i) words[i / 64] |= uint64_t{1} << (i % 64);
  mem::BitString from_words = ones;
  from_words.AssignWords(narrow, words.data());
  expect_ones_below(from_words, narrow, "AssignWords");

  EXPECT_EQ(assigned, from_words);
  EXPECT_EQ(mem::BitString::FromBytes(ones.bytes(), narrow), assigned);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitStringPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- packet surgery -----------------------------------------------------------------

class PacketPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PacketPropertyTest, InsertRemovePreservesSurroundings) {
  util::Rng rng(GetParam());
  std::vector<uint8_t> original(64 + rng.NextBelow(192));
  for (auto& b : original) b = static_cast<uint8_t>(rng.Next());
  net::Packet p{std::span<const uint8_t>(original)};

  for (int round = 0; round < 40; ++round) {
    size_t at = rng.NextBelow(p.size() + 1);
    size_t count = 1 + rng.NextBelow(40);
    ASSERT_TRUE(p.InsertBytes(at, count).ok());
    // Gap is zeroed.
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(p.data()[at + i], 0) << "round " << round;
    }
    ASSERT_TRUE(p.RemoveBytes(at, count).ok());
  }
  net::Packet reference{std::span<const uint8_t>(original)};
  EXPECT_EQ(p, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

// --- random expression serde ---------------------------------------------------------

arch::ExprPtr RandomExpr(util::Rng& rng, int depth) {
  using arch::Expr;
  if (depth <= 0 || rng.NextBool(0.35)) {
    switch (rng.NextBelow(4)) {
      case 0:
        return Expr::ConstU(rng.Next() & 0xFFFF,
                            8 << rng.NextBelow(3));  // 8/16/32-bit consts
      case 1:
        return Expr::Field(arch::FieldRef::Header("ipv4", "ttl"));
      case 2:
        return Expr::Field(arch::FieldRef::Meta("nexthop"));
      default:
        return Expr::IsValid(rng.NextBool() ? "ipv4" : "ipv6");
    }
  }
  static const Expr::Op kOps[] = {
      Expr::Op::kEq,  Expr::Op::kNe,     Expr::Op::kLt,    Expr::Op::kGt,
      Expr::Op::kAnd, Expr::Op::kOr,     Expr::Op::kAdd,   Expr::Op::kSub,
      Expr::Op::kMul, Expr::Op::kBitAnd, Expr::Op::kBitOr, Expr::Op::kBitXor,
      Expr::Op::kShl, Expr::Op::kShr};
  if (rng.NextBool(0.15)) {
    return Expr::Unary(rng.NextBool() ? Expr::Op::kNot : Expr::Op::kBitNot,
                       RandomExpr(rng, depth - 1));
  }
  Expr::Op op = kOps[rng.NextBelow(std::size(kOps))];
  return Expr::Binary(op, RandomExpr(rng, depth - 1),
                      RandomExpr(rng, depth - 1));
}

class ExprSerdePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExprSerdePropertyTest, JsonRoundTripIsIdentity) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    arch::ExprPtr expr = RandomExpr(rng, 5);
    util::Json json = arch::ExprToJson(expr);
    // Through *text*, as the real flow stores templates on disk.
    auto reparsed_json = util::Json::Parse(json.Dump());
    ASSERT_TRUE(reparsed_json.ok());
    auto back = arch::ExprFromJson(*reparsed_json);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(arch::ExprToJson(*back).Dump(), json.Dump()) << "iter " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprSerdePropertyTest,
                         ::testing::Values(7, 8, 9));

// --- logical-table geometry sweep -----------------------------------------------------

struct Geometry {
  uint32_t table_width;
  uint32_t table_depth;
  uint32_t block_width;
  uint32_t block_depth;
};

class LogicalTablePropertyTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(LogicalTablePropertyTest, RandomRowsRoundTrip) {
  const Geometry& g = GetParam();
  mem::PoolConfig cfg;
  cfg.sram_blocks = 64;
  cfg.sram_width_bits = g.block_width;
  cfg.sram_depth = g.block_depth;
  mem::Pool pool(cfg);
  auto t = mem::LogicalTable::Create(pool, mem::BlockKind::kSram, 1,
                                     g.table_width, g.table_depth);
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  util::Rng rng(g.table_width * 1000 + g.table_depth);
  std::map<uint32_t, mem::BitString> model;
  for (int i = 0; i < 100; ++i) {
    uint32_t row = static_cast<uint32_t>(rng.NextBelow(g.table_depth));
    mem::BitString value(g.table_width);
    for (size_t bit = 0; bit < g.table_width; ++bit) {
      value.SetBit(bit, rng.NextBool());
    }
    ASSERT_TRUE(t->WriteRow(pool, row, value).ok());
    model[row] = value;
  }
  for (const auto& [row, expected] : model) {
    auto got = t->ReadRow(pool, row);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, expected) << "row " << row;
    EXPECT_TRUE(t->RowValid(pool, row));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LogicalTablePropertyTest,
    ::testing::Values(Geometry{32, 16, 64, 32},      // fits in one block
                      Geometry{100, 40, 64, 32},     // 2 cols x 2 rows
                      Geometry{200, 100, 64, 32},    // 4 cols x 4 rows
                      Geometry{65, 33, 64, 32},      // off-by-one spans
                      Geometry{256, 8, 32, 64}));    // wide over narrow blocks

// --- full-system equivalence under churn -----------------------------------------------

class ChurnEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChurnEquivalenceTest, DevicesAgreeUnderRandomTrafficAndChurn) {
  ipbm::IpbmSwitch ipsa_dev;
  controller::Rp4FlowController rp4(ipsa_dev, compiler::Rp4bcOptions{});
  ASSERT_TRUE(rp4.LoadBaseFromP4(controller::designs::BaseP4()).ok());
  pisa::PisaSwitch pisa_dev;
  controller::PisaFlowController p4(pisa_dev, compiler::PisaBackendOptions{});
  ASSERT_TRUE(p4.CompileAndLoad(controller::designs::BaseP4()).ok());

  controller::BaselineConfig config;
  auto add_both = [&](const std::string& t, const table::Entry& e) {
    IPSA_RETURN_IF_ERROR(rp4.AddEntry(t, e));
    return p4.AddEntry(t, e);
  };
  ASSERT_TRUE(
      controller::PopulateBaseline(rp4.api(), add_both, config).ok());

  util::Rng rng(GetParam());
  net::WorkloadConfig wcfg;
  wcfg.seed = GetParam();
  wcfg.ipv6_fraction = 0.3;
  net::Workload workload(wcfg);
  controller::EntryBuilder builder(rp4.api());

  for (int i = 0; i < 300; ++i) {
    if (rng.NextBool(0.05)) {
      // Runtime churn: add a fresh /32 route to BOTH devices.
      uint32_t dst = config.v4_dst_base + 0x10000 +
                     static_cast<uint32_t>(rng.NextBelow(1000));
      auto e = builder.Build("ipv4_lpm", "set_nexthop",
                             {controller::KeyValue(controller::Ipv4Bits(dst))},
                             {controller::Bits(16, 100 + rng.NextBelow(8))},
                             /*prefix_len=*/32);
      ASSERT_TRUE(e.ok());
      ASSERT_TRUE(add_both("ipv4_lpm", *e).ok());
    }
    net::Packet a = workload.NextPacket();
    net::Packet b = a;
    auto ra = ipsa_dev.Process(a, 1);
    auto rb = pisa_dev.Process(b, 1);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    ASSERT_EQ(ra->dropped, rb->dropped) << "packet " << i;
    ASSERT_EQ(ra->egress_port, rb->egress_port) << "packet " << i;
    ASSERT_EQ(ra->marked, rb->marked) << "packet " << i;
    ASSERT_EQ(a, b) << "packet rewrite diverged at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnEquivalenceTest,
                         ::testing::Values(101, 202, 303));

// --- garbage-in robustness ----------------------------------------------------------------

class FuzzRobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzRobustnessTest, RandomBytesNeverCrashEitherDevice) {
  ipbm::IpbmSwitch ipsa_dev;
  controller::Rp4FlowController rp4(ipsa_dev, compiler::Rp4bcOptions{});
  ASSERT_TRUE(rp4.LoadBaseFromP4(controller::designs::BaseP4()).ok());
  pisa::PisaSwitch pisa_dev;
  controller::PisaFlowController p4(pisa_dev, compiler::PisaBackendOptions{});
  ASSERT_TRUE(p4.CompileAndLoad(controller::designs::BaseP4()).ok());
  controller::BaselineConfig config;
  ASSERT_TRUE(controller::PopulateBaseline(
                  rp4.api(),
                  [&](const std::string& t, const table::Entry& e) {
                    IPSA_RETURN_IF_ERROR(rp4.AddEntry(t, e));
                    return p4.AddEntry(t, e);
                  },
                  config)
                  .ok());

  util::Rng rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    // Anything from an empty frame to 512 bytes of noise; sometimes with a
    // plausible EtherType so the parser walks deeper before hitting garbage.
    size_t len = rng.NextBelow(512);
    std::vector<uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
    if (len >= 14 && rng.NextBool(0.5)) {
      uint16_t ethertype = rng.NextBool() ? 0x0800 : 0x86DD;
      bytes[12] = static_cast<uint8_t>(ethertype >> 8);
      bytes[13] = static_cast<uint8_t>(ethertype);
    }
    net::Packet a{std::span<const uint8_t>(bytes)};
    net::Packet b = a;
    auto ra = ipsa_dev.Process(a, static_cast<uint32_t>(i % 16));
    auto rb = pisa_dev.Process(b, static_cast<uint32_t>(i % 16));
    // Garbage may fail cleanly (e.g. a rewrite on a truncated header) but
    // must never crash, and both devices must agree on the verdict.
    ASSERT_EQ(ra.ok(), rb.ok()) << "packet " << i << " len " << len;
    if (ra.ok()) {
      EXPECT_EQ(ra->dropped, rb->dropped) << "packet " << i;
      EXPECT_EQ(ra->egress_port, rb->egress_port) << "packet " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRobustnessTest,
                         ::testing::Values(41, 42, 43));

// --- selector balance ------------------------------------------------------------------

class SelectorBalanceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SelectorBalanceTest, LoadSpreadIsFair) {
  uint32_t members = GetParam();
  mem::PoolConfig cfg;
  mem::Pool pool(cfg);
  table::TableSpec spec;
  spec.name = "ecmp";
  spec.match_kind = table::MatchKind::kSelector;
  spec.key_width_bits = 48;
  spec.action_data_width_bits = 16;
  spec.size = 256;
  auto t = table::CreateTable(spec, pool, 1);
  ASSERT_TRUE(t.ok());
  for (uint32_t b = 0; b < members; ++b) {
    table::Entry e;
    e.key = mem::BitString(48, b);
    e.action_id = 1;
    e.action_data = mem::BitString(16, b);
    ASSERT_TRUE((*t)->Insert(e).ok());
  }
  std::map<uint64_t, int> hist;
  const int kFlows = 4000;
  util::Rng rng(members);
  for (int f = 0; f < kFlows; ++f) {
    hist[(*t)->Lookup(mem::BitString(48, rng.Next())).action_data
             .ToUint64()]++;
  }
  EXPECT_EQ(hist.size(), members);
  double fair = static_cast<double>(kFlows) / members;
  for (const auto& [member, count] : hist) {
    EXPECT_GT(count, fair * 0.6) << "member " << member << " starved";
    EXPECT_LT(count, fair * 1.4) << "member " << member << " overloaded";
  }
}

INSTANTIATE_TEST_SUITE_P(MemberCounts, SelectorBalanceTest,
                         ::testing::Values(2, 3, 4, 8, 16));

}  // namespace
}  // namespace ipsa
