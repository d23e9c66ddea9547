#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "mem/block.h"
#include "mem/crossbar.h"
#include "mem/logical_table.h"
#include "mem/pool.h"
#include "util/rng.h"

namespace ipsa::mem {
namespace {

// --- BitString -------------------------------------------------------------------

TEST(BitStringTest, WidthAndZeroInit) {
  BitString s(70);
  EXPECT_EQ(s.bit_width(), 70u);
  EXPECT_EQ(s.byte_size(), 9u);
  for (size_t i = 0; i < 70; ++i) EXPECT_FALSE(s.GetBit(i));
}

TEST(BitStringTest, ValueConstructor) {
  BitString s(16, 0xABCD);
  EXPECT_EQ(s.ToUint64(), 0xABCDu);
  BitString narrow(4, 0xFF);  // truncates to width
  EXPECT_EQ(narrow.ToUint64(), 0xFu);
}

TEST(BitStringTest, GetSetBits) {
  BitString s(100);
  s.SetBits(40, 24, 0x123456);
  EXPECT_EQ(s.GetBits(40, 24), 0x123456u);
  EXPECT_EQ(s.GetBits(0, 40), 0u);
  EXPECT_EQ(s.GetBits(64, 36), 0u);
}

TEST(BitStringTest, Slice) {
  BitString s(32, 0xDEADBEEF);
  BitString low = s.Slice(0, 16);
  EXPECT_EQ(low.ToUint64(), 0xBEEFu);
  BitString high = s.Slice(16, 16);
  EXPECT_EQ(high.ToUint64(), 0xDEADu);
}

TEST(BitStringTest, FromBytesMasksTail) {
  std::vector<uint8_t> bytes{0xFF, 0xFF};
  BitString s = BitString::FromBytes(bytes, 12);
  EXPECT_EQ(s.ToUint64(), 0xFFFu);
}

TEST(BitStringTest, MatchesUnderMask) {
  BitString key(16, 0xAB00);
  BitString other(16, 0xABFF);
  BitString mask_high(16, 0xFF00);
  BitString mask_all(16, 0xFFFF);
  EXPECT_TRUE(key.MatchesUnderMask(other, mask_high));
  EXPECT_FALSE(key.MatchesUnderMask(other, mask_all));
}

TEST(BitStringTest, ToHex) {
  EXPECT_EQ(BitString(16, 0xAB).ToHex(), "0x00ab");
}

// --- BitString small-buffer / in-place operations --------------------------------

// Shrinking a heap-resident string back under the inline threshold must not
// leave stale bytes visible: Resize always zeroes the active buffer.
TEST(BitStringTest, ResizeAcrossInlineHeapBoundaryZeroes) {
  BitString s(200);
  for (size_t i = 0; i < 200; ++i) s.SetBit(i, true);
  s.Resize(100);  // back under kInlineBits
  for (size_t i = 0; i < 100; ++i) EXPECT_FALSE(s.GetBit(i)) << i;
  s.SetBits(60, 30, 0x2AAAAAAA);
  EXPECT_EQ(s.GetBits(60, 30), 0x2AAAAAAAu);
  s.Resize(300);  // grow past the earlier heap buffer
  for (size_t i = 0; i < 300; ++i) EXPECT_FALSE(s.GetBit(i)) << i;
}

// A wide string resized down must compare equal (operator== is a memcmp) to
// a freshly built string of the same value: no stale tail bits survive.
TEST(BitStringTest, EqualityAfterCapacityReuse) {
  BitString reused(500);
  for (size_t i = 0; i < 500; ++i) reused.SetBit(i, true);
  reused.Resize(70);
  reused.SetBits(0, 60, 0x0123456789ABCDEFull);
  BitString fresh(70);
  fresh.SetBits(0, 60, 0x0123456789ABCDEFull);
  EXPECT_TRUE(reused == fresh);
}

TEST(BitStringTest, WordMatchesGetBitsAndReadsZeroBeyondWidth) {
  util::Rng rng(11);
  for (size_t width : {1u, 7u, 64u, 65u, 127u, 128u, 129u, 200u, 333u}) {
    BitString s(width);
    for (size_t i = 0; i < width; ++i) s.SetBit(i, rng.NextBool());
    for (size_t w = 0; w < s.WordCount(); ++w) {
      size_t off = w * 64;
      size_t span = width > off ? std::min<size_t>(64, width - off) : 0;
      uint64_t want = span == 0 ? 0 : s.GetBits(off, span);
      EXPECT_EQ(s.Word(w), want) << "width=" << width << " word=" << w;
    }
  }
}

TEST(BitStringTest, SliceIntoMatchesSlice) {
  util::Rng rng(12);
  BitString src(300);
  for (size_t i = 0; i < 300; ++i) src.SetBit(i, rng.NextBool());
  BitString out;
  for (int q = 0; q < 200; ++q) {
    size_t offset = rng.NextBelow(300);
    size_t width = rng.NextBelow(300 - offset + 1);
    src.SliceInto(offset, width, out);
    EXPECT_TRUE(out == src.Slice(offset, width))
        << "offset=" << offset << " width=" << width;
  }
}

// The key-concatenation primitive: appending parts into a pre-sized string
// must equal the per-bit reference, across word and inline/heap boundaries.
TEST(BitStringTest, AppendBitsConcatenates) {
  util::Rng rng(13);
  std::vector<BitString> parts;
  size_t total = 0;
  for (size_t width : {9u, 48u, 64u, 100u, 3u}) {
    BitString p(width);
    for (size_t i = 0; i < width; ++i) p.SetBit(i, rng.NextBool());
    total += width;
    parts.push_back(std::move(p));
  }
  BitString got(total);
  size_t cursor = 0;
  for (const BitString& p : parts) {
    got.AppendBits(p, 0, p.bit_width(), cursor);
  }
  EXPECT_EQ(cursor, total);
  BitString want(total);
  size_t at = 0;
  for (const BitString& p : parts) {
    for (size_t i = 0; i < p.bit_width(); ++i) want.SetBit(at++, p.GetBit(i));
  }
  EXPECT_TRUE(got == want);
}

TEST(BitStringTest, CopyAndMoveAcrossInlineHeapBoundary) {
  BitString small(40, 0xABCDEF01);
  BitString wide(200);
  wide.SetBits(150, 40, 0xFEEDF00Dull);

  BitString copy_of_wide = wide;
  EXPECT_TRUE(copy_of_wide == wide);
  copy_of_wide = small;  // heap-capacity holder takes an inline-sized value
  EXPECT_TRUE(copy_of_wide == small);

  BitString moved = std::move(wide);
  EXPECT_EQ(moved.GetBits(150, 40), 0xFEEDF00Dull);
  // The moved-from string is reset and must be fully reusable.
  EXPECT_EQ(wide.bit_width(), 0u);
  wide.Resize(48);
  wide.SetBits(0, 48, 0x123456789ABCull);
  EXPECT_EQ(wide.GetBits(0, 48), 0x123456789ABCull);

  BitString target(16, 0xFFFF);
  target = std::move(moved);
  EXPECT_EQ(target.bit_width(), 200u);
  EXPECT_EQ(target.GetBits(150, 40), 0xFEEDF00Dull);
  BitString self(64, 42);
  BitString& self_alias = self;
  self = self_alias;  // self-assignment is a no-op
  EXPECT_EQ(self.ToUint64(), 42u);
}

TEST(BitStringTest, AssignTruncatesAndZeroExtends) {
  BitString dst(96);
  for (size_t i = 0; i < 96; ++i) dst.SetBit(i, true);
  dst.Assign(BitString(16, 0xBEEF));
  EXPECT_EQ(dst.bit_width(), 96u);
  EXPECT_EQ(dst.GetBits(0, 16), 0xBEEFu);
  EXPECT_EQ(dst.GetBits(16, 64), 0u);
  BitString narrow(12);
  narrow.Assign(BitString(64, 0xFFFFFFFFFFFFFFFFull));
  EXPECT_EQ(narrow.ToUint64(), 0xFFFu);  // tail bits masked off
}

TEST(BitStringTest, MatchesUnderMaskWideMatchesBitReference) {
  util::Rng rng(14);
  for (int q = 0; q < 100; ++q) {
    size_t width = 1 + rng.NextBelow(260);
    BitString a(width), b(width), m(width);
    for (size_t i = 0; i < width; ++i) {
      a.SetBit(i, rng.NextBool());
      // Bias b toward a so matches actually occur.
      b.SetBit(i, rng.NextBool(0.1) ? !a.GetBit(i) : a.GetBit(i));
      m.SetBit(i, rng.NextBool(0.8));
    }
    bool want = true;
    for (size_t i = 0; i < width; ++i) {
      if (m.GetBit(i) && a.GetBit(i) != b.GetBit(i)) want = false;
    }
    EXPECT_EQ(a.MatchesUnderMask(b, m), want) << "width=" << width;
  }
}

// --- Block -----------------------------------------------------------------------

TEST(BlockTest, WriteReadRow) {
  Block b(0, BlockKind::kSram, 64, 16);
  ASSERT_TRUE(b.WriteRow(3, BitString(64, 0x1234)).ok());
  auto row = b.ReadRow(3);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->ToUint64(), 0x1234u);
  EXPECT_TRUE(b.row_valid(3));
  EXPECT_FALSE(b.row_valid(4));
}

TEST(BlockTest, BoundsChecked) {
  Block b(0, BlockKind::kSram, 64, 16);
  EXPECT_FALSE(b.WriteRow(16, BitString(64, 1)).ok());
  EXPECT_FALSE(b.ReadRow(99).ok());
  EXPECT_FALSE(b.WriteRow(0, BitString(128, 1)).ok());  // too wide
}

TEST(BlockTest, MaskOnlyOnTcam) {
  Block sram(0, BlockKind::kSram, 64, 4);
  EXPECT_FALSE(sram.WriteMask(0, BitString(64)).ok());
  Block tcam(1, BlockKind::kTcam, 64, 4);
  EXPECT_TRUE(tcam.WriteMask(0, BitString(64, 0xFF)).ok());
  EXPECT_EQ(tcam.mask(0).ToUint64(), 0xFFu);
}

TEST(BlockTest, ReleaseClearsContent) {
  Block b(0, BlockKind::kSram, 32, 4);
  b.Allocate(7);
  ASSERT_TRUE(b.WriteRow(1, BitString(32, 5)).ok());
  b.Release();
  EXPECT_FALSE(b.allocated());
  EXPECT_FALSE(b.row_valid(1));
  EXPECT_EQ(b.ReadRow(1)->ToUint64(), 0u);
}

// --- Pool ------------------------------------------------------------------------

PoolConfig SmallPool() {
  PoolConfig cfg;
  cfg.sram_blocks = 8;
  cfg.sram_width_bits = 64;
  cfg.sram_depth = 32;
  cfg.tcam_blocks = 4;
  cfg.tcam_width_bits = 32;
  cfg.tcam_depth = 16;
  cfg.clusters = 1;
  return cfg;
}

TEST(PoolTest, AllocateAndRelease) {
  Pool pool(SmallPool());
  auto blocks = pool.AllocateBlocks(BlockKind::kSram, 3, /*owner=*/1);
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(blocks->size(), 3u);
  EXPECT_EQ(pool.UsedBlocks(BlockKind::kSram), 3u);
  EXPECT_EQ(pool.FreeBlocks(BlockKind::kSram), 5u);
  EXPECT_EQ(pool.ReleaseOwner(1), 3u);
  EXPECT_EQ(pool.FreeBlocks(BlockKind::kSram), 8u);
}

TEST(PoolTest, ExhaustionReported) {
  Pool pool(SmallPool());
  EXPECT_TRUE(pool.AllocateBlocks(BlockKind::kSram, 8, 1).ok());
  EXPECT_FALSE(pool.AllocateBlocks(BlockKind::kSram, 1, 2).ok());
}

TEST(PoolTest, BlocksForFormula) {
  Pool pool(SmallPool());
  // ceil(W/w) x ceil(D/d): W=100,w=64 -> 2 cols; D=50,d=32 -> 2 rows.
  EXPECT_EQ(pool.BlocksFor(BlockKind::kSram, 100, 50), 4u);
  EXPECT_EQ(pool.BlocksFor(BlockKind::kSram, 64, 32), 1u);
  EXPECT_EQ(pool.BlocksFor(BlockKind::kSram, 65, 33), 4u);
}

TEST(PoolTest, ClusterStriping) {
  PoolConfig cfg = SmallPool();
  cfg.clusters = 4;
  Pool pool(cfg);
  // SRAM blocks 0..7 stripe round-robin over 4 clusters.
  EXPECT_EQ(pool.ClusterOf(0), 0u);
  EXPECT_EQ(pool.ClusterOf(1), 1u);
  EXPECT_EQ(pool.ClusterOf(4), 0u);
  // Cluster-restricted allocation only uses that cluster's blocks.
  auto blocks = pool.AllocateBlocks(BlockKind::kSram, 2, 1, /*cluster=*/2);
  ASSERT_TRUE(blocks.ok());
  for (uint32_t id : *blocks) EXPECT_EQ(pool.ClusterOf(id), 2u);
  // Only 2 SRAM blocks per cluster here; a third must fail.
  EXPECT_FALSE(pool.AllocateBlocks(BlockKind::kSram, 1, 2, 2).ok());
}

// --- LogicalTable -------------------------------------------------------------------

TEST(LogicalTableTest, SingleBlockRoundTrip) {
  Pool pool(SmallPool());
  auto t = LogicalTable::Create(pool, BlockKind::kSram, 1, 48, 20);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->WriteRow(pool, 7, BitString(48, 0xABCDEF)).ok());
  auto row = t->ReadRow(pool, 7);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->ToUint64(), 0xABCDEFu);
  EXPECT_TRUE(t->RowValid(pool, 7));
  EXPECT_FALSE(t->RowValid(pool, 8));
}

TEST(LogicalTableTest, WideRowSpansColumns) {
  Pool pool(SmallPool());
  // 150-bit rows over 64-bit blocks: 3 columns.
  auto t = LogicalTable::Create(pool, BlockKind::kSram, 1, 150, 10);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->block_ids().size(), 3u);
  BitString value(150);
  value.SetBits(0, 64, 0x1111111111111111ull);
  value.SetBits(64, 64, 0x2222222222222222ull);
  value.SetBits(128, 22, 0x3FFFFF);
  ASSERT_TRUE(t->WriteRow(pool, 9, value).ok());
  auto row = t->ReadRow(pool, 9);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*row, value);
}

TEST(LogicalTableTest, DeepTableSpansBlockRows) {
  Pool pool(SmallPool());
  // 64-bit rows, 100 deep over depth-32 blocks: 4 block rows.
  auto t = LogicalTable::Create(pool, BlockKind::kSram, 1, 64, 100);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->block_ids().size(), 4u);
  for (uint32_t r : {0u, 31u, 32u, 64u, 99u}) {
    ASSERT_TRUE(t->WriteRow(pool, r, BitString(64, r + 1)).ok());
  }
  for (uint32_t r : {0u, 31u, 32u, 64u, 99u}) {
    EXPECT_EQ(t->ReadRow(pool, r)->ToUint64(), r + 1);
  }
  EXPECT_FALSE(t->WriteRow(pool, 100, BitString(64, 1)).ok());
}

TEST(LogicalTableTest, FreeRecyclesBlocks) {
  Pool pool(SmallPool());
  auto t = LogicalTable::Create(pool, BlockKind::kSram, 9, 64, 100);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(pool.UsedBlocks(BlockKind::kSram), 4u);
  t->Free(pool);
  EXPECT_EQ(pool.UsedBlocks(BlockKind::kSram), 0u);
}

TEST(LogicalTableTest, AccessCyclesScalesWithWidth) {
  Pool pool(SmallPool());
  auto narrow = LogicalTable::Create(pool, BlockKind::kSram, 1, 64, 10);
  auto wide = LogicalTable::Create(pool, BlockKind::kSram, 2, 150, 10);
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  // 1 crossbar cycle + ceil(width/bus) beats.
  EXPECT_EQ(narrow->AccessCycles(256), 2u);
  EXPECT_EQ(wide->AccessCycles(64), 1u + 3u);
}

TEST(LogicalTableTest, TcamMaskRoundTrip) {
  Pool pool(SmallPool());
  auto t = LogicalTable::Create(pool, BlockKind::kTcam, 1, 48, 10);
  ASSERT_TRUE(t.ok());
  BitString mask(48);
  mask.SetBits(0, 24, 0xFFFFFF);
  ASSERT_TRUE(t->WriteMask(pool, 3, mask).ok());
  EXPECT_EQ(t->ReadMask(pool, 3), mask);
}

// --- Crossbar --------------------------------------------------------------------

TEST(CrossbarTest, FullCrossbarRoutesAnything) {
  Pool pool(SmallPool());
  Crossbar xbar(CrossbarKind::kFull, 4, 1);
  EXPECT_TRUE(xbar.Connect(0, 5, pool).ok());
  EXPECT_TRUE(xbar.Connect(3, 0, pool).ok());
  EXPECT_TRUE(xbar.IsConnected(0, 5));
  EXPECT_EQ(xbar.route_count(), 2u);
}

TEST(CrossbarTest, ClusteredCrossbarRestricts) {
  PoolConfig cfg = SmallPool();
  cfg.clusters = 2;
  Pool pool(cfg);
  Crossbar xbar(CrossbarKind::kClustered, 4, 2);
  // Processor 0 is cluster 0; SRAM block 0 is cluster 0, block 1 cluster 1.
  EXPECT_TRUE(xbar.Connect(0, 0, pool).ok());
  EXPECT_FALSE(xbar.Connect(0, 1, pool).ok());
  EXPECT_TRUE(xbar.Connect(1, 1, pool).ok());
}

TEST(CrossbarTest, DisconnectProcTearsDownRoutes) {
  Pool pool(SmallPool());
  Crossbar xbar(CrossbarKind::kFull, 4, 1);
  ASSERT_TRUE(xbar.Connect(2, 0, pool).ok());
  ASSERT_TRUE(xbar.Connect(2, 1, pool).ok());
  ASSERT_TRUE(xbar.Connect(1, 0, pool).ok());
  EXPECT_EQ(xbar.DisconnectProc(2), 2u);
  EXPECT_FALSE(xbar.IsConnected(2, 0));
  EXPECT_TRUE(xbar.IsConnected(1, 0));
}

TEST(CrossbarTest, ConfigWordsCounted) {
  Pool pool(SmallPool());
  Crossbar xbar(CrossbarKind::kFull, 4, 1);
  ASSERT_TRUE(xbar.Connect(0, 0, pool).ok());
  ASSERT_TRUE(xbar.Connect(0, 0, pool).ok());  // duplicate: no new word
  EXPECT_EQ(xbar.DisconnectProc(0), 1u);
  EXPECT_EQ(xbar.config_words_written(), 2u);
  EXPECT_EQ(xbar.DisconnectProc(0), 0u);  // already gone: no new word
  EXPECT_EQ(xbar.config_words_written(), 2u);
}

TEST(CrossbarTest, BlocksOfLists) {
  Pool pool(SmallPool());
  Crossbar xbar(CrossbarKind::kFull, 4, 1);
  ASSERT_TRUE(xbar.Connect(1, 3, pool).ok());
  ASSERT_TRUE(xbar.Connect(1, 5, pool).ok());
  EXPECT_EQ(xbar.BlocksOf(1), (std::vector<uint32_t>{3, 5}));
}

}  // namespace
}  // namespace ipsa::mem
