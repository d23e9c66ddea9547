#include <gtest/gtest.h>

#include "arch/actions.h"
#include "arch/catalog.h"
#include "arch/compiled_stage.h"
#include "arch/context.h"
#include "arch/design.h"
#include "arch/expr.h"
#include "arch/header_types.h"
#include "arch/parse_engine.h"
#include "arch/phv.h"
#include "arch/stage.h"
#include "net/checksum.h"
#include "net/packet_builder.h"

namespace ipsa::arch {
namespace {

using net::Ipv4Addr;
using net::Ipv6Addr;
using net::MacAddr;
using net::PacketBuilder;

net::Packet V4Packet() {
  return PacketBuilder()
      .Ethernet(MacAddr::FromUint64(0x0A0B0C0D0E0Full),
                MacAddr::FromUint64(0x020202020202ull), net::kEtherTypeIpv4)
      .Ipv4(Ipv4Addr::FromString("192.168.0.1"),
            Ipv4Addr::FromString("10.1.2.3"), net::kIpProtoUdp, 64)
      .Udp(4000, 53)
      .Payload(16)
      .Build();
}

net::Packet V6SrhPacket() {
  Ipv6Addr sid = Ipv6Addr::FromGroups({0x2001, 0xdb8, 0xaa, 0, 0, 0, 0, 2});
  Ipv6Addr final_dst =
      Ipv6Addr::FromGroups({0x2001, 0xdb8, 0xff, 0, 0, 0, 0, 9});
  return PacketBuilder()
      .Ethernet(MacAddr{}, MacAddr{}, net::kEtherTypeIpv6)
      .Ipv6(Ipv6Addr::FromGroups({0x2001, 0xdb8, 0, 0, 0, 0, 0, 1}), sid,
            net::kIpProtoRouting)
      .Srh({final_dst, sid}, 1, net::kIpProtoIpv4)
      .Ipv4(Ipv4Addr::FromString("10.0.0.1"),
            Ipv4Addr::FromString("10.0.0.2"), net::kIpProtoUdp)
      .Udp(1, 2)
      .Build();
}

// --- header registry ---------------------------------------------------------

TEST(HeaderRegistryTest, StandardTypesPresent) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  EXPECT_TRUE(reg.Has("ethernet"));
  EXPECT_TRUE(reg.Has("ipv4"));
  EXPECT_TRUE(reg.Has("ipv6"));
  EXPECT_FALSE(reg.Has("srh"));  // loaded at runtime (use case C2)
  EXPECT_EQ(reg.entry_type(), "ethernet");
}

TEST(HeaderRegistryTest, FieldOffsets) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  auto ipv4 = reg.Get("ipv4");
  ASSERT_TRUE(ipv4.ok());
  EXPECT_EQ(*(*ipv4)->FieldOffsetBits("version"), 0u);
  EXPECT_EQ(*(*ipv4)->FieldOffsetBits("ttl"), 64u);
  EXPECT_EQ(*(*ipv4)->FieldOffsetBits("dst_addr"), 128u);
  EXPECT_EQ(*(*ipv4)->FieldWidthBits("dst_addr"), 32u);
  EXPECT_EQ((*ipv4)->fixed_size_bytes(), 20u);
  EXPECT_FALSE((*ipv4)->FieldOffsetBits("nope").ok());
}

TEST(HeaderRegistryTest, RuntimeLinkHeader) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  ASSERT_TRUE(reg.Add(HeaderRegistry::SrhType()).ok());
  ASSERT_TRUE(reg.LinkHeader("ipv6", "srh", 43).ok());
  auto ipv6 = reg.Get("ipv6");
  ASSERT_TRUE(ipv6.ok());
  EXPECT_EQ((*ipv6)->NextNameFor(43), "srh");
  EXPECT_EQ((*ipv6)->NextFor(43), reg.IdOf("srh"));
  ASSERT_TRUE(reg.UnlinkHeader("ipv6", 43).ok());
  EXPECT_FALSE((*ipv6)->NextNameFor(43).has_value());
  EXPECT_EQ((*ipv6)->NextFor(43), kNoHeader);
  // Linking to an unregistered target fails.
  EXPECT_FALSE(reg.LinkHeader("ipv6", "ghost", 99).ok());
}

TEST(HeaderRegistryTest, DuplicateAddRejected) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  HeaderTypeDef dup("ipv4", {{"x", 8}});
  EXPECT_EQ(reg.Add(dup).code(), StatusCode::kAlreadyExists);
}

// --- metadata / PHV ------------------------------------------------------------

TEST(MetadataTest, DeclareReadWrite) {
  Metadata m = Metadata::Standard();
  ASSERT_TRUE(m.Declare("custom", 12).ok());
  ASSERT_TRUE(m.WriteUint("custom", 0xABC).ok());
  EXPECT_EQ(m.ReadUint("custom"), 0xABCu);
  // Width-respecting truncation.
  ASSERT_TRUE(m.WriteUint("custom", 0xFFFF).ok());
  EXPECT_EQ(m.ReadUint("custom"), 0xFFFu);
  EXPECT_FALSE(m.WriteUint("ghost", 1).ok());
  // Redeclaring with the same width is idempotent; different width fails.
  EXPECT_TRUE(m.Declare("custom", 12).ok());
  EXPECT_FALSE(m.Declare("custom", 16).ok());
}

// Fields over 64 bits keep a BitString slot; narrow ones are plain words.
// Both paths must truncate and zero-extend like a BitString assignment.
TEST(MetadataTest, WideAndNarrowSlots) {
  Metadata m = Metadata::Standard();
  ASSERT_TRUE(m.Declare("wide", 100).ok());
  int wide = m.SlotOf("wide");
  int narrow = m.SlotOf("egress_spec");
  ASSERT_NE(m.WideValue(wide), nullptr);
  EXPECT_EQ(m.WideValue(narrow), nullptr);

  mem::BitString v(100);
  v.SetBits(64, 36, 0xABCDEF123ull);
  v.SetBits(0, 64, 0x1122334455667788ull);
  m.SlotWrite(wide, v);
  EXPECT_EQ(m.SlotRead(wide), v);
  EXPECT_EQ(m.SlotReadUint(wide), 0x1122334455667788ull);
  m.SlotWriteUint(wide, 7);
  EXPECT_EQ(m.SlotRead(wide), mem::BitString(100, 7));

  m.SlotWrite(narrow, v);  // truncates to the 9-bit width
  EXPECT_EQ(m.NarrowRead(narrow), 0x188u);
  EXPECT_EQ(m.SlotRead(narrow), mem::BitString(9, 0x188));
  m.NarrowWrite(narrow, 0xFFFF);
  EXPECT_EQ(m.SlotReadUint(narrow), 0x1FFu);

  m.Reset();
  EXPECT_EQ(m.SlotReadUint(narrow), 0u);
  EXPECT_EQ(m.SlotRead(wide), mem::BitString(100));
}

TEST(PhvTest, ShiftOffsets) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  const HeaderTypeDef* eth = *reg.Get("ethernet");
  const HeaderTypeDef* ipv4 = *reg.Get("ipv4");
  Phv phv;
  phv.Add({eth->id(), 0, 14, true, eth});
  phv.Add({ipv4->id(), 14, 20, true, ipv4});
  phv.ShiftOffsets(14, 8);
  EXPECT_EQ(phv.Find("ethernet")->byte_offset, 0u);
  EXPECT_EQ(phv.Find("ipv4")->byte_offset, 22u);
}

// --- context field access --------------------------------------------------------

struct FieldCase {
  const char* instance;
  const char* field;
  uint64_t expected;
};

// Without this gtest prints the raw bytes of the case, pointers included,
// so every build registers the cases under different ctest names.
void PrintTo(const FieldCase& c, std::ostream* os) {
  *os << c.instance << "." << c.field;
}

class ContextFieldTest : public ::testing::TestWithParam<FieldCase> {
 protected:
  ContextFieldTest()
      : registry_(HeaderRegistry::StandardL2L3()),
        packet_(V4Packet()),
        ctx_(packet_, registry_, Metadata::Standard()) {
    auto parsed = ParseEngine::ParseAll(ctx_);
    EXPECT_TRUE(parsed.ok());
  }
  HeaderRegistry registry_;
  net::Packet packet_;
  PacketContext ctx_;
};

TEST_P(ContextFieldTest, ReadsWireValue) {
  const FieldCase& c = GetParam();
  auto v = ctx_.ReadField(FieldRef::Header(c.instance, c.field));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->ToUint64(), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    V4Fields, ContextFieldTest,
    ::testing::Values(
        FieldCase{"ethernet", "dst_addr", 0x0A0B0C0D0E0Full},
        FieldCase{"ethernet", "ether_type", 0x0800},
        FieldCase{"ipv4", "version", 4}, FieldCase{"ipv4", "ihl", 5},
        FieldCase{"ipv4", "ttl", 64},
        FieldCase{"ipv4", "protocol", 17},
        FieldCase{"ipv4", "src_addr", 0xC0A80001},
        FieldCase{"ipv4", "dst_addr", 0x0A010203},
        FieldCase{"udp", "src_port", 4000},
        FieldCase{"udp", "dst_port", 53}));

TEST(ContextTest, WriteFieldChangesWire) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  net::Packet packet = V4Packet();
  PacketContext ctx(packet, reg, Metadata::Standard());
  ASSERT_TRUE(ParseEngine::ParseAll(ctx).ok());
  ASSERT_TRUE(
      ctx.WriteField(FieldRef::Header("ipv4", "ttl"), mem::BitString(8, 9))
          .ok());
  net::Ipv4View view(packet.bytes().subspan(14));
  EXPECT_EQ(view.ttl(), 9);
}

TEST(ContextTest, InvalidInstanceRejected) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  net::Packet packet = V4Packet();
  PacketContext ctx(packet, reg, Metadata::Standard());
  ASSERT_TRUE(ParseEngine::ParseAll(ctx).ok());
  EXPECT_FALSE(ctx.ReadField(FieldRef::Header("ipv6", "hop_limit")).ok());
}

TEST(ContextTest, RawAccessWithDynamicOffset) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  ASSERT_TRUE(reg.Add(HeaderRegistry::SrhType()).ok());
  ASSERT_TRUE(reg.LinkHeader("ipv6", "srh", 43).ok());
  net::Packet packet = V6SrhPacket();
  PacketContext ctx(packet, reg, Metadata::Standard());
  ASSERT_TRUE(ParseEngine::ParseAll(ctx).ok());
  // Segment 1 (the SID) lives at bit offset 64 + 128.
  auto seg1 = ctx.ReadRaw("srh", 64 + 128, 128);
  ASSERT_TRUE(seg1.ok()) << seg1.status().ToString();
  EXPECT_EQ(seg1->GetBits(0, 16), 2u);  // low group of the SID
}

// --- wire bit ranges -------------------------------------------------------------

// Known answers for the packet path's header-field codec (ReadWireBits /
// WriteWireBits): wire bit 0 is the MSB of byte 0 and a field reads
// big-endian. The fast-path suite checks the chunked codec against a
// bit-by-bit reference; these pin the layout itself.
uint64_t ReadBits(std::span<const uint8_t> data, size_t offset, size_t width) {
  return ReadWireBits(data, offset, width).ToUint64();
}

void WriteBits(std::span<uint8_t> data, size_t offset, size_t width,
               uint64_t value) {
  WriteWireBits(data, offset, width, mem::BitString(width, value));
}

TEST(BitopsTest, ReadWholeBytes) {
  uint8_t data[] = {0x12, 0x34, 0x56, 0x78};
  EXPECT_EQ(ReadBits(data, 0, 8), 0x12u);
  EXPECT_EQ(ReadBits(data, 8, 16), 0x3456u);
  EXPECT_EQ(ReadBits(data, 0, 32), 0x12345678u);
}

TEST(BitopsTest, ReadSubByteFields) {
  uint8_t data[] = {0x45, 0x00};  // IPv4 version=4, ihl=5
  EXPECT_EQ(ReadBits(data, 0, 4), 4u);
  EXPECT_EQ(ReadBits(data, 4, 4), 5u);
}

TEST(BitopsTest, ReadMisalignedAcrossBytes) {
  uint8_t data[] = {0b10110110, 0b01101101};
  EXPECT_EQ(ReadBits(data, 3, 7), 0b1011001u);
}

TEST(BitopsTest, WriteThenReadRoundTrip) {
  uint8_t data[8] = {};
  WriteBits(data, 5, 11, 0x5A5);
  EXPECT_EQ(ReadBits(data, 5, 11), 0x5A5u);
  // Surrounding bits untouched.
  EXPECT_EQ(ReadBits(data, 0, 5), 0u);
  EXPECT_EQ(ReadBits(data, 16, 8), 0u);
}

TEST(BitopsTest, WritePreservesNeighbors) {
  uint8_t data[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  WriteBits(data, 8, 8, 0x00);
  EXPECT_EQ(data[0], 0xFF);
  EXPECT_EQ(data[1], 0x00);
  EXPECT_EQ(data[2], 0xFF);
}

TEST(BitopsTest, Misaligned64BitField) {
  uint8_t data[10] = {};
  WriteBits(data, 3, 64, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(ReadBits(data, 3, 64), 0xDEADBEEFCAFEF00Dull);
}

struct BitRange {
  size_t offset;
  size_t width;
};

class BitopsSweepTest : public ::testing::TestWithParam<BitRange> {};

TEST_P(BitopsSweepTest, RoundTripAtEveryAlignment) {
  const BitRange range = GetParam();
  uint8_t data[16] = {};
  const uint64_t mask = range.width == 64 ? ~uint64_t{0}
                                          : (uint64_t{1} << range.width) - 1;
  uint64_t value = 0xA5A5A5A5A5A5A5A5ull & mask;
  WriteBits(data, range.offset, range.width, value);
  EXPECT_EQ(ReadBits(data, range.offset, range.width), value);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlignments, BitopsSweepTest,
    ::testing::Values(BitRange{0, 1}, BitRange{7, 1}, BitRange{1, 7},
                      BitRange{3, 13}, BitRange{4, 20}, BitRange{9, 33},
                      BitRange{15, 48}, BitRange{2, 64}, BitRange{8, 64},
                      BitRange{63, 5}));

// --- expressions -----------------------------------------------------------------

class ExprTest : public ::testing::Test {
 protected:
  ExprTest()
      : registry_(HeaderRegistry::StandardL2L3()),
        packet_(V4Packet()),
        ctx_(packet_, registry_, Metadata::Standard()) {
    EXPECT_TRUE(ParseEngine::ParseAll(ctx_).ok());
    env_.ctx = &ctx_;
    env_.regs = &regs_;
  }

  uint64_t Eval(const ExprPtr& e) {
    auto v = e->Eval(env_);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v.ok() ? v->ToUint64() : 0;
  }

  HeaderRegistry registry_;
  net::Packet packet_;
  PacketContext ctx_;
  RegisterFile regs_;
  EvalEnv env_;
};

TEST_F(ExprTest, ArithmeticAndComparison) {
  auto ttl = Expr::Field(FieldRef::Header("ipv4", "ttl"));
  EXPECT_EQ(Eval(Expr::Binary(Expr::Op::kAdd, ttl, Expr::ConstU(1))), 65u);
  EXPECT_EQ(Eval(Expr::Binary(Expr::Op::kSub, ttl, Expr::ConstU(1))), 63u);
  EXPECT_EQ(Eval(Expr::Binary(Expr::Op::kEq, ttl, Expr::ConstU(64))), 1u);
  EXPECT_EQ(Eval(Expr::Binary(Expr::Op::kGt, ttl, Expr::ConstU(64))), 0u);
  EXPECT_EQ(Eval(Expr::Binary(Expr::Op::kShl, Expr::ConstU(3),
                              Expr::ConstU(2))),
            12u);
}

TEST_F(ExprTest, BooleanShortCircuit) {
  auto valid_v4 = Expr::IsValid("ipv4");
  auto valid_v6 = Expr::IsValid("ipv6");
  EXPECT_EQ(Eval(Expr::Binary(Expr::Op::kAnd, valid_v4, valid_v6)), 0u);
  EXPECT_EQ(Eval(Expr::Binary(Expr::Op::kOr, valid_v6, valid_v4)), 1u);
  EXPECT_EQ(Eval(Expr::Unary(Expr::Op::kNot, valid_v6)), 1u);
  // Short-circuit: rhs error is not evaluated when lhs decides.
  auto boom = Expr::Field(FieldRef::Header("ipv6", "hop_limit"));
  EXPECT_EQ(Eval(Expr::Binary(Expr::Op::kAnd, valid_v6, boom)), 0u);
}

TEST_F(ExprTest, WideFieldComparison) {
  // 128-bit IPv6-style compare through CompareBits.
  mem::BitString a(128);
  a.SetBits(100, 20, 0x5);
  mem::BitString b(128);
  b.SetBits(100, 20, 0x6);
  EXPECT_LT(CompareBits(a, b), 0);
  EXPECT_GT(CompareBits(b, a), 0);
  EXPECT_EQ(CompareBits(a, a), 0);
  // Different widths compare numerically.
  EXPECT_EQ(CompareBits(mem::BitString(8, 5), mem::BitString(64, 5)), 0);
}

TEST_F(ExprTest, RegisterReadThroughExpr) {
  ASSERT_TRUE(regs_.Create("cnt", 8).ok());
  ASSERT_TRUE(regs_.Write("cnt", 3, 99).ok());
  EXPECT_EQ(Eval(Expr::Register("cnt", Expr::ConstU(3))), 99u);
}

TEST_F(ExprTest, ParamLookupRequiresBinding) {
  auto p = Expr::Param("x");
  EXPECT_FALSE(p->Eval(env_).ok());
  std::map<std::string, mem::BitString> args{{"x", mem::BitString(16, 7)}};
  EvalEnv bound{&ctx_, &args, &regs_};
  EXPECT_EQ(p->Eval(bound)->ToUint64(), 7u);
}

// --- actions ----------------------------------------------------------------------

// Packs parameter values (declaration order) low-bits-first into the
// action_data layout ExecuteAction reads.
mem::BitString PackActionArgs(const ActionDef& action,
                              const std::vector<mem::BitString>& values) {
  mem::BitString out(action.ParamsWidthBits());
  size_t offset = 0;
  for (size_t i = 0; i < action.params.size(); ++i) {
    uint32_t w = action.params[i].width_bits;
    if (i < values.size()) {
      for (uint32_t bit = 0; bit < w && bit < values[i].bit_width(); ++bit) {
        out.SetBit(offset + bit, values[i].GetBit(bit));
      }
    }
    offset += w;
  }
  return out;
}

TEST_F(ExprTest, ActionAssignAndForward) {
  ActionDef def;
  def.name = "route";
  def.params = {{"port", 9}, {"dmac", 48}};
  def.body.push_back(ActionOp::Assign(FieldRef::Header("ethernet", "dst_addr"),
                                      Expr::Param("dmac")));
  def.body.push_back(ActionOp::Forward(Expr::Param("port")));

  mem::BitString args = PackActionArgs(
      def, {mem::BitString(9, 5), mem::BitString(48, 0x020304050607ull)});
  ASSERT_TRUE(ExecuteAction(def, args, ctx_, &regs_).ok());
  EXPECT_EQ(ctx_.egress_spec(), 5u);
  EXPECT_EQ(ctx_.ReadField(FieldRef::Header("ethernet", "dst_addr"))
                ->ToUint64(),
            0x020304050607ull);
}

TEST_F(ExprTest, ActionConditionalRegister) {
  ASSERT_TRUE(regs_.Create("cnt", 4).ok());
  ActionDef def;
  def.name = "probe";
  def.params = {{"idx", 16}, {"threshold", 32}};
  def.body.push_back(ActionOp::RegWrite(
      "cnt", Expr::Param("idx"),
      Expr::Binary(Expr::Op::kAdd, Expr::Register("cnt", Expr::Param("idx")),
                   Expr::ConstU(1))));
  def.body.push_back(ActionOp::If(
      Expr::Binary(Expr::Op::kGt, Expr::Register("cnt", Expr::Param("idx")),
                   Expr::Param("threshold")),
      {ActionOp::Mark()}));

  mem::BitString args =
      PackActionArgs(def, {mem::BitString(16, 1), mem::BitString(32, 2)});
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(ExecuteAction(def, args, ctx_, &regs_).ok());
    EXPECT_EQ(*regs_.Read("cnt", 1), static_cast<uint64_t>(i));
    EXPECT_EQ(ctx_.marked(), i > 2) << "iteration " << i;
  }
}

TEST_F(ExprTest, ActionDropSetsVerdict) {
  ActionDef def;
  def.name = "deny";
  def.body.push_back(ActionOp::Drop());
  ASSERT_TRUE(ExecuteAction(def, mem::BitString(0), ctx_, &regs_).ok());
  EXPECT_TRUE(ctx_.dropped());
}

TEST(ActionTest, PushAndPopHeaderMaintainPhv) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  ASSERT_TRUE(reg.Add(HeaderRegistry::SrhType()).ok());
  net::Packet packet = V4Packet();
  size_t size_before = packet.size();
  PacketContext ctx(packet, reg, Metadata::Standard());
  ASSERT_TRUE(ParseEngine::ParseAll(ctx).ok());

  ActionDef push;
  push.name = "encap";
  push.body.push_back(
      ActionOp::PushHeader("srh", "ethernet", Expr::ConstU(24)));
  ASSERT_TRUE(ExecuteAction(push, mem::BitString(0), ctx, nullptr).ok());
  EXPECT_EQ(packet.size(), size_before + 24);
  EXPECT_TRUE(ctx.phv().IsValid("srh"));
  EXPECT_EQ(ctx.phv().Find("srh")->byte_offset, 14u);
  EXPECT_EQ(ctx.phv().Find("ipv4")->byte_offset, 14u + 24u);

  ActionDef pop;
  pop.name = "decap";
  pop.body.push_back(ActionOp::PopHeader("srh"));
  ASSERT_TRUE(ExecuteAction(pop, mem::BitString(0), ctx, nullptr).ok());
  EXPECT_EQ(packet.size(), size_before);
  EXPECT_FALSE(ctx.phv().IsValid("srh"));
  EXPECT_EQ(ctx.phv().Find("ipv4")->byte_offset, 14u);
  // The IPv4 header is intact after the round trip.
  EXPECT_EQ(ctx.ReadField(FieldRef::Header("ipv4", "dst_addr"))->ToUint64(),
            0x0A010203u);
}

TEST(ActionTest, UpdateChecksumProducesValidHeader) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  net::Packet packet = V4Packet();
  PacketContext ctx(packet, reg, Metadata::Standard());
  ASSERT_TRUE(ParseEngine::ParseAll(ctx).ok());

  ActionDef def;
  def.name = "dec_ttl";
  def.body.push_back(ActionOp::Assign(
      FieldRef::Header("ipv4", "ttl"),
      Expr::Binary(Expr::Op::kSub, Expr::Field(FieldRef::Header("ipv4", "ttl")),
                   Expr::ConstU(1))));
  def.body.push_back(ActionOp::UpdateChecksum("ipv4"));
  ASSERT_TRUE(ExecuteAction(def, mem::BitString(0), ctx, nullptr).ok());
  // RFC 1071: a header with a correct checksum sums to zero.
  EXPECT_EQ(net::InternetChecksum(packet.bytes().subspan(14, 20)), 0);
  // And the result matches an independently computed checksum.
  net::Ipv4View view(packet.bytes().subspan(14));
  uint16_t stored = view.checksum();
  view.UpdateChecksum();
  EXPECT_EQ(view.checksum(), stored);
}

TEST(ActionTest, UpdateChecksumOnInvalidHeaderFails) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  net::Packet packet = V4Packet();
  PacketContext ctx(packet, reg, Metadata::Standard());
  ASSERT_TRUE(ParseEngine::ParseAll(ctx).ok());
  ActionDef def;
  def.name = "bad";
  def.body.push_back(ActionOp::UpdateChecksum("ipv6"));
  EXPECT_FALSE(ExecuteAction(def, mem::BitString(0), ctx, nullptr).ok());
}

// --- parse engine ------------------------------------------------------------------

TEST(ParseEngineTest, ParseAllWalksChain) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  net::Packet packet = V4Packet();
  PacketContext ctx(packet, reg, Metadata::Standard());
  auto stats = ParseEngine::ParseAll(ctx);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->headers_parsed, 3u);  // ethernet, ipv4, udp
  EXPECT_TRUE(ctx.phv().IsValid("udp"));
}

TEST(ParseEngineTest, ParseUntilStopsEarly) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  net::Packet packet = V4Packet();
  PacketContext ctx(packet, reg, Metadata::Standard());
  auto stats = ParseEngine::ParseUntil(ctx, {"ipv4"});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->headers_parsed, 2u);  // ethernet + ipv4, NOT udp
  EXPECT_FALSE(ctx.phv().IsValid("udp"));
}

TEST(ParseEngineTest, ParseUntilResumesWithoutReparsing) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  net::Packet packet = V4Packet();
  PacketContext ctx(packet, reg, Metadata::Standard());
  ASSERT_TRUE(ParseEngine::ParseUntil(ctx, {"ipv4"}).ok());
  auto second = ParseEngine::ParseUntil(ctx, {"ipv4"});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->headers_parsed, 0u);  // already there
  auto third = ParseEngine::ParseUntil(ctx, {"udp"});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->headers_parsed, 1u);  // just udp
}

TEST(ParseEngineTest, MissingHeaderIsNotAnError) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  net::Packet packet = V4Packet();
  PacketContext ctx(packet, reg, Metadata::Standard());
  auto stats = ParseEngine::ParseUntil(ctx, {"ipv6"});
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(ctx.phv().IsValid("ipv6"));
}

TEST(ParseEngineTest, VariableSizeHeader) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  ASSERT_TRUE(reg.Add(HeaderRegistry::SrhType()).ok());
  ASSERT_TRUE(reg.LinkHeader("ipv6", "srh", 43).ok());
  ASSERT_TRUE(reg.LinkHeader("srh", "ipv4", 4).ok());
  net::Packet packet = V6SrhPacket();
  PacketContext ctx(packet, reg, Metadata::Standard());
  ASSERT_TRUE(ParseEngine::ParseAll(ctx).ok());
  const HeaderInstance* srh = ctx.phv().Find("srh");
  ASSERT_NE(srh, nullptr);
  EXPECT_EQ(srh->size_bytes, 8u + 32u);  // 2 segments
  // Inner IPv4 parsed right after the variable-size SRH.
  const HeaderInstance* inner = ctx.phv().Find("ipv4");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->byte_offset, 14u + 40u + 40u);
}

TEST(ParseEngineTest, TruncatedPacketStopsCleanly) {
  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  net::Packet full = V4Packet();
  // Keep ethernet + 10 bytes of ipv4 only.
  std::vector<uint8_t> truncated(full.bytes().begin(),
                                 full.bytes().begin() + 24);
  net::Packet packet{std::span<const uint8_t>(truncated)};
  PacketContext ctx(packet, reg, Metadata::Standard());
  auto stats = ParseEngine::ParseAll(ctx);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->headers_parsed, 1u);  // just ethernet
}

// --- catalog + stage --------------------------------------------------------------

TEST(StageTest, RunStageMatchesAndExecutes) {
  mem::PoolConfig pool_cfg;
  mem::Pool pool(pool_cfg);
  TableCatalog catalog(pool);
  ActionStore actions;

  table::TableSpec spec;
  spec.name = "fib";
  spec.match_kind = table::MatchKind::kExact;
  spec.key_width_bits = 32;
  spec.action_data_width_bits = 16;
  spec.size = 16;
  ASSERT_TRUE(catalog
                  .CreateTable(spec,
                               TableBinding{{FieldRef::Header("ipv4",
                                                              "dst_addr")}})
                  .ok());

  ActionDef set_nh;
  set_nh.name = "set_nh";
  set_nh.params = {{"nh", 16}};
  set_nh.body.push_back(
      ActionOp::Assign(FieldRef::Meta("nexthop"), Expr::Param("nh")));
  ASSERT_TRUE(actions.Add(set_nh).ok());

  auto* tbl = *catalog.Get("fib");
  table::Entry entry;
  entry.key = mem::BitString(32, 0x0A010203);
  entry.action_id = 1;
  entry.action_data = mem::BitString(16, 42);
  ASSERT_TRUE(tbl->Insert(entry).ok());

  StageProgram stage;
  stage.name = "fib";
  stage.parse_set = {"ipv4"};
  stage.matcher.push_back(MatchRule{Expr::IsValid("ipv4"), "fib"});
  stage.executor[1] = "set_nh";

  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  net::Packet packet = V4Packet();
  PacketContext ctx(packet, reg, Metadata::Standard());
  auto stats = RunStage(stage, ctx, catalog, actions, nullptr,
                        /*jit_parse=*/true);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->hit);
  EXPECT_EQ(stats->executed_action, "set_nh");
  EXPECT_EQ(ctx.metadata().ReadUint("nexthop"), 42u);
  EXPECT_GT(stats->parse_cycles, 0u);
  EXPECT_GT(stats->access_cycles, 0u);
}

TEST(StageTest, GuardFalseSkipsTable) {
  mem::Pool pool{mem::PoolConfig{}};
  TableCatalog catalog(pool);
  ActionStore actions;
  StageProgram stage;
  stage.name = "v6_only";
  stage.matcher.push_back(MatchRule{Expr::IsValid("ipv6"), "missing_table"});

  HeaderRegistry reg = HeaderRegistry::StandardL2L3();
  net::Packet packet = V4Packet();
  PacketContext ctx(packet, reg, Metadata::Standard());
  ASSERT_TRUE(ParseEngine::ParseAll(ctx).ok());
  auto stats = RunStage(stage, ctx, catalog, actions, nullptr, false);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->table_applied);  // guard never passed, table untouched
}

// --- misc helpers ---------------------------------------------------------------------

TEST(CatalogTest, DestroyUnknownTableFails) {
  mem::Pool pool{mem::PoolConfig{}};
  TableCatalog catalog(pool);
  EXPECT_EQ(catalog.DestroyTable("ghost").code(), StatusCode::kNotFound);
  EXPECT_FALSE(catalog.Get("ghost").ok());
  EXPECT_FALSE(catalog.GetBinding("ghost").ok());
}

TEST(ExprToStringTest, ReadableForms) {
  auto e = Expr::Binary(
      Expr::Op::kAnd, Expr::IsValid("ipv4"),
      Expr::Binary(Expr::Op::kGt, Expr::Register("cnt", Expr::ConstU(3)),
                   Expr::Param("threshold")));
  EXPECT_EQ(e->ToString(), "(ipv4.isValid() && (cnt[3] > threshold))");
  EXPECT_EQ(Expr::Field(FieldRef::Meta("bd"))->ToString(), "meta.bd");
  EXPECT_EQ(Expr::Raw("srh", Expr::ConstU(64), 128)->ToString(),
            "srh.raw[64 +: 128]");
}

// --- serde round trips ---------------------------------------------------------------

TEST(SerdeTest, ExprRoundTrip) {
  auto expr = Expr::Binary(
      Expr::Op::kAnd, Expr::IsValid("ipv4"),
      Expr::Binary(Expr::Op::kGt,
                   Expr::Register("cnt", Expr::Param("idx")),
                   Expr::ConstU(10, 32)));
  auto json = ExprToJson(expr);
  auto back = ExprFromJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(ExprToJson(*back).Dump(), json.Dump());
}

TEST(SerdeTest, RawExprKeepsWidth) {
  auto expr = Expr::Raw("srh", Expr::ConstU(64), 128);
  auto back = ExprFromJson(ExprToJson(expr));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->raw_width(), 128u);
}

TEST(SerdeTest, ActionRoundTrip) {
  ActionDef def;
  def.name = "set_bd_dmac";
  def.params = {{"bd", 16}, {"dmac", 48}};
  def.body.push_back(
      ActionOp::Assign(FieldRef::Meta("bd"), Expr::Param("bd")));
  def.body.push_back(ActionOp::Assign(FieldRef::Header("ethernet", "dst_addr"),
                                      Expr::Param("dmac")));
  def.body.push_back(ActionOp::If(Expr::IsValid("ipv4"),
                                  {ActionOp::Mark()}, {ActionOp::Drop()}));
  auto back = ActionDefFromJson(ActionDefToJson(def));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(ActionDefToJson(*back).Dump(), ActionDefToJson(def).Dump());
}

TEST(SerdeTest, StageRoundTrip) {
  StageProgram stage;
  stage.name = "ecmp";
  stage.parse_set = {"ipv4", "ipv6"};
  stage.matcher.push_back(MatchRule{Expr::IsValid("ipv4"), "ecmp_ipv4"});
  stage.matcher.push_back(MatchRule{Expr::IsValid("ipv6"), "ecmp_ipv6"});
  stage.matcher.push_back(MatchRule{nullptr, ""});
  stage.executor[1] = "set_bd_dmac";
  stage.miss_action = "NoAction";
  auto back = StageProgramFromJson(StageProgramToJson(stage));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(StageProgramToJson(*back).Dump(),
            StageProgramToJson(stage).Dump());
}

TEST(SerdeTest, HeaderTypeRoundTrip) {
  HeaderTypeDef srh = HeaderRegistry::SrhType();
  srh.SetLink(41, "ipv6");
  auto back = HeaderTypeFromJson(HeaderTypeToJson(srh));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->name(), "srh");
  EXPECT_EQ(back->NextNameFor(41), "ipv6");
  ASSERT_TRUE(back->var_size().has_value());
  EXPECT_EQ(back->var_size()->multiplier, 8u);
}

TEST(SerdeTest, DesignConfigRoundTripThroughJsonText) {
  DesignConfig design;
  design.name = "demo";
  design.headers = HeaderRegistry::StandardL2L3();
  design.metadata.push_back({"bd", 16});
  ActionDef a;
  a.name = "fwd";
  a.params = {{"port", 9}};
  a.body.push_back(ActionOp::Forward(Expr::Param("port")));
  design.actions.push_back(a);
  TableDecl t;
  t.spec.name = "dmac";
  t.spec.match_kind = table::MatchKind::kExact;
  t.spec.key_width_bits = 48;
  t.spec.action_data_width_bits = 9;
  t.spec.size = 64;
  t.binding.key_fields = {FieldRef::Header("ethernet", "dst_addr")};
  design.tables.push_back(t);
  StageProgram s;
  s.name = "dmac";
  s.matcher.push_back(MatchRule{nullptr, "dmac"});
  s.executor[1] = "fwd";
  design.ingress_stages.push_back(s);

  std::string text = design.ToJson().Dump(2);
  auto parsed_json = util::Json::Parse(text);
  ASSERT_TRUE(parsed_json.ok());
  auto back = DesignConfig::FromJson(*parsed_json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ToJson().Dump(2), text);
  EXPECT_EQ(back->TotalConfigWords(), design.TotalConfigWords());
}

// --- flat expression programs vs the interpreter ----------------------------------
//
// The compiled stage evaluates every narrow expression as a flat post-order
// program; RunStage walks the Expr tree by name. Each case runs one
// single-stage program both ways from identical packets, metadata and
// registers, and requires identical statuses, values, packets and cycles.

class FlatProgramTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kWidths[] = {1, 8, 16, 63, 64};

  FlatProgramTest() : pool_(mem::PoolConfig{}), catalog_(pool_) {
    for (uint32_t w : kWidths) {
      EXPECT_TRUE(meta_.Declare(Meta("a", w), w).ok());
      EXPECT_TRUE(meta_.Declare(Meta("b", w), w).ok());
    }
    EXPECT_TRUE(meta_.Declare("out", 64).ok());
    EXPECT_TRUE(meta_.Declare("sel", 8).ok());
    // One exact entry on meta.sel == 0 binds tag 1 and action data that
    // each case's parameter reads.
    table::TableSpec spec;
    spec.name = "args";
    spec.match_kind = table::MatchKind::kExact;
    spec.key_width_bits = 8;
    spec.action_data_width_bits = 64;
    spec.size = 4;
    EXPECT_TRUE(
        catalog_.CreateTable(spec, TableBinding{{FieldRef::Meta("sel")}}).ok());
    ActionDef noop;
    noop.name = "noop";
    EXPECT_TRUE(actions_.Add(noop).ok());
  }

  static std::string Meta(const char* base, uint32_t w) {
    return base + std::to_string(w);
  }
  static uint64_t MaskOf(uint32_t w) {
    return w >= 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1;
  }
  // 0, 1, the maximum and its neighbours, and shift counts at and beyond
  // the width, each masked to `w`.
  static std::vector<uint64_t> EdgeValues(uint32_t w) {
    std::vector<uint64_t> out;
    for (uint64_t v : {uint64_t{0}, uint64_t{1}, MaskOf(w), MaskOf(w) - 1,
                       MaskOf(w) >> 1, (MaskOf(w) >> 1) + 1, uint64_t{w},
                       uint64_t{64}, uint64_t{65}}) {
      v &= MaskOf(w);
      if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
    }
    return out;
  }

  // Binds table entry (sel == 0) to `data` and tag 1 to a fresh action
  // with parameter `p` (`p_width` bits) running `body`.
  StageProgram ActionStage(std::vector<ActionOp> body, uint32_t p_width,
                           uint64_t data) {
    ActionDef def;
    def.name = "act" + std::to_string(next_action_++);
    def.params = {{"p", p_width}};
    def.body = std::move(body);
    EXPECT_TRUE(actions_.Add(def).ok());
    table::Entry entry;
    entry.key = mem::BitString(8, 0);
    entry.action_id = 1;
    entry.action_data = mem::BitString(64, data);
    EXPECT_TRUE((*catalog_.Get("args"))->Insert(entry).ok());
    StageProgram stage;
    stage.name = "s";
    stage.parse_set = {"ethernet", "ipv4"};
    stage.matcher.push_back(MatchRule{nullptr, "args"});
    stage.executor[1] = def.name;
    return stage;
  }

  StageProgram GuardStage(ExprPtr guard) {
    StageProgram stage;
    stage.name = "g";
    stage.parse_set = {"ethernet", "ipv4"};
    stage.matcher.push_back(MatchRule{std::move(guard), "args"});
    stage.executor[1] = "noop";
    return stage;
  }

  struct Outcome {
    std::string status;
    bool applied = false;
    uint64_t out = 0;
    uint32_t egress = 0;
    std::vector<uint8_t> bytes;
    std::vector<uint64_t> regs;
    uint64_t cycles = 0;
    bool operator==(const Outcome&) const = default;
  };

  // Runs `stage` on a fresh packet, metadata and register file, through
  // the compiled stage or the interpreter.
  Outcome Run(const StageProgram& stage, bool compiled, bool with_regs) {
    net::Packet packet = V4Packet();
    PacketContext ctx(packet, registry_, meta_);
    RegisterFile regs;
    EXPECT_TRUE(regs.Create("r", 4).ok());
    EXPECT_TRUE(regs.Write("r", 1, 77).ok());
    RegisterFile* rf = with_regs ? &regs : nullptr;
    Result<StageRunStats> stats = InternalError("not run");
    if (compiled) {
      auto cs = CompileStage(stage, catalog_, actions_, registry_, meta_);
      EXPECT_TRUE(cs.ok()) << cs.status().ToString();
      if (cs.ok()) stats = RunCompiledStage(*cs, ctx, rf, true, false);
    } else {
      stats = RunStage(stage, ctx, catalog_, actions_, rf, true);
    }
    Outcome o;
    o.status = stats.ok() ? "OK" : stats.status().ToString();
    o.applied = stats.ok() && stats->table_applied;
    o.out = ctx.metadata().ReadUint("out");
    o.egress = ctx.egress_spec();
    o.bytes.assign(packet.bytes().begin(), packet.bytes().end());
    for (size_t i = 0; i < 4; ++i) o.regs.push_back(*regs.Read("r", i));
    o.cycles = ctx.cycles();
    return o;
  }

  // Runs both ways; returns the interpreter's outcome after checking that
  // the compiled stage's is identical.
  Outcome ExpectSame(const StageProgram& stage, const std::string& what,
                     bool with_regs = true) {
    Outcome want = Run(stage, false, with_regs);
    Outcome got = Run(stage, true, with_regs);
    EXPECT_EQ(got.status, want.status) << what;
    EXPECT_EQ(got.out, want.out) << what;
    EXPECT_TRUE(got == want) << what;
    return want;
  }

  void SetInput(const char* base, uint32_t w, uint64_t v) {
    ASSERT_TRUE(meta_.WriteUint(Meta(base, w), v).ok());
  }

  mem::Pool pool_;
  TableCatalog catalog_;
  ActionStore actions_;
  HeaderRegistry registry_ = HeaderRegistry::StandardL2L3();
  Metadata meta_ = Metadata::Standard();
  int next_action_ = 0;
};

TEST_F(FlatProgramTest, EveryOperatorAtEveryWidthMatchesInterpreter) {
  const Expr::Op kBinaryOps[] = {
      Expr::Op::kEq,     Expr::Op::kNe,          Expr::Op::kLt,
      Expr::Op::kLe,     Expr::Op::kGt,          Expr::Op::kGe,
      Expr::Op::kAnd,    Expr::Op::kOr,          Expr::Op::kAdd,
      Expr::Op::kSub,    Expr::Op::kMul,         Expr::Op::kBitAnd,
      Expr::Op::kBitOr,  Expr::Op::kBitXor,      Expr::Op::kShl,
      Expr::Op::kShr,    Expr::Op::kSatAdd,      Expr::Op::kFxpQuantize,
      Expr::Op::kFxpDequantize};
  for (uint32_t w : kWidths) {
    const std::vector<uint64_t> edges = EdgeValues(w);
    for (uint64_t a : edges) {
      SetInput("a", w, a);
      for (Expr::Op op : {Expr::Op::kNot, Expr::Op::kBitNot}) {
        ExpectSame(ActionStage({ActionOp::Assign(
                                   FieldRef::Meta("out"),
                                   Expr::Unary(op, Expr::Field(FieldRef::Meta(
                                                       Meta("a", w)))))},
                               w, 0),
                   std::string(OpName(op)) + " w=" + std::to_string(w) +
                       " a=" + std::to_string(a));
      }
      for (uint64_t b : edges) {
        SetInput("b", w, b);
        for (Expr::Op op : kBinaryOps) {
          const std::string what = std::string(OpName(op)) +
                                   " w=" + std::to_string(w) +
                                   " a=" + std::to_string(a) +
                                   " b=" + std::to_string(b);
          // A metadata field against an action parameter...
          ExpectSame(ActionStage({ActionOp::Assign(
                                     FieldRef::Meta("out"),
                                     Expr::Binary(op,
                                                  Expr::Field(FieldRef::Meta(
                                                      Meta("a", w))),
                                                  Expr::Param("p")))},
                                 w, b),
                     what + " (meta op param)");
          // ...and a constant against a metadata field.
          ExpectSame(ActionStage({ActionOp::Assign(
                                     FieldRef::Meta("out"),
                                     Expr::Binary(op, Expr::ConstU(a, w),
                                                  Expr::Field(FieldRef::Meta(
                                                      Meta("b", w)))))},
                                 w, 0),
                     what + " (const op meta)");
        }
      }
    }
  }
}

TEST_F(FlatProgramTest, MixedWidthOperandsMatchInterpreter) {
  const std::pair<uint32_t, uint32_t> kPairs[] = {{1, 64}, {8, 16}, {63, 8},
                                                  {64, 1}};
  for (auto [wa, wb] : kPairs) {
    for (uint64_t a : EdgeValues(wa)) {
      SetInput("a", wa, a);
      for (uint64_t b : EdgeValues(wb)) {
        for (Expr::Op op :
             {Expr::Op::kAdd, Expr::Op::kSub, Expr::Op::kMul, Expr::Op::kShl,
              Expr::Op::kSatAdd, Expr::Op::kFxpQuantize,
              Expr::Op::kFxpDequantize, Expr::Op::kLt, Expr::Op::kBitXor}) {
          ExpectSame(ActionStage({ActionOp::Assign(
                                     FieldRef::Meta("out"),
                                     Expr::Binary(op,
                                                  Expr::Field(FieldRef::Meta(
                                                      Meta("a", wa))),
                                                  Expr::Param("p")))},
                                 wb, b),
                     std::string(OpName(op)) + " wa=" + std::to_string(wa) +
                         " wb=" + std::to_string(wb) +
                         " a=" + std::to_string(a) + " b=" + std::to_string(b));
        }
      }
    }
  }
}

TEST_F(FlatProgramTest, ShortCircuitSkipsTheRightOperand) {
  // r[99] is out of range: evaluating it fails the stage.
  ExprPtr bad = Expr::Register("r", Expr::ConstU(99, 8));
  for (uint64_t a : {uint64_t{0}, uint64_t{5}}) {
    SetInput("a", 8, a);
    ExprPtr lhs = Expr::Field(FieldRef::Meta(Meta("a", 8)));
    Outcome and_out = ExpectSame(
        ActionStage({ActionOp::Assign(FieldRef::Meta("out"),
                                      Expr::Binary(Expr::Op::kAnd, lhs, bad))},
                    8, 0),
        "a && r[99], a=" + std::to_string(a));
    EXPECT_EQ(and_out.status == "OK", a == 0);
    Outcome or_out = ExpectSame(
        ActionStage({ActionOp::Assign(FieldRef::Meta("out"),
                                      Expr::Binary(Expr::Op::kOr, lhs, bad))},
                    8, 0),
        "a || r[99], a=" + std::to_string(a));
    EXPECT_EQ(or_out.status == "OK", a != 0);
    if (a != 0) {
      EXPECT_EQ(or_out.out, 1u);
    }
    // Nested connectives in a guard decide whether the table applies.
    for (uint64_t b : {uint64_t{0}, uint64_t{3}}) {
      SetInput("b", 16, b);
      ExprPtr guard = Expr::Binary(
          Expr::Op::kOr,
          Expr::Binary(Expr::Op::kAnd, Expr::IsValid("ipv4"),
                       Expr::Binary(Expr::Op::kEq, lhs, Expr::ConstU(5, 8))),
          Expr::Unary(Expr::Op::kNot,
                      Expr::Field(FieldRef::Meta(Meta("b", 16)))));
      ExpectSame(GuardStage(guard), "guard a=" + std::to_string(a) +
                                        " b=" + std::to_string(b));
    }
  }
}

TEST_F(FlatProgramTest, ErrorPathsMatchInterpreter) {
  auto assign_out = [&](ExprPtr e) {
    return ActionStage({ActionOp::Assign(FieldRef::Meta("out"), std::move(e))},
                       8, 0);
  };
  // A header that is not valid in this packet.
  Outcome invalid = ExpectSame(
      assign_out(Expr::Field(FieldRef::Header("ipv6", "hop_limit"))),
      "invalid header");
  EXPECT_NE(invalid.status.find("'ipv6' is not valid"), std::string::npos);
  // Raw reads: inside the header, and past the end of the packet.
  Outcome ttl = ExpectSame(assign_out(Expr::Raw("ipv4", Expr::ConstU(64, 16), 8)),
                           "raw ttl");
  EXPECT_EQ(ttl.out, 64u);
  Outcome past = ExpectSame(
      assign_out(Expr::Raw("ipv4", Expr::ConstU(4000, 16), 16)), "raw past end");
  EXPECT_NE(past.status.find("raw read beyond packet end"), std::string::npos);
  // Registers: a read, and the same read with no register file bound.
  StageProgram reg_read = assign_out(Expr::Register("r", Expr::ConstU(1, 8)));
  EXPECT_EQ(ExpectSame(reg_read, "register read").out, 77u);
  Outcome no_regs = ExpectSame(reg_read, "no register file", false);
  EXPECT_NE(no_regs.status.find("no register file available"),
            std::string::npos);
  // No action arguments: a parameter in a guard. The interpreter fails the
  // packet; the compiler refuses the stage, so a device runs it on the
  // interpreter.
  StageProgram param_guard = GuardStage(Expr::Param("p"));
  Outcome no_args = Run(param_guard, false, true);
  EXPECT_NE(no_args.status.find("no action arguments bound"),
            std::string::npos);
  EXPECT_FALSE(
      CompileStage(param_guard, catalog_, actions_, registry_, meta_).ok());
}

// A right-deep tree needs one stack value per level: deeper than the flat
// program's fixed stack, it stays on the BitString evaluator, with the
// same result.
TEST_F(FlatProgramTest, TreeDeeperThanTheStackMatchesInterpreter) {
  SetInput("a", 16, 5);
  ExprPtr e = Expr::Field(FieldRef::Meta(Meta("a", 16)));
  for (int i = 0; i < 40; ++i) {
    e = Expr::Binary(Expr::Op::kAdd, Expr::ConstU(1, 16), e);
  }
  Outcome out = ExpectSame(
      ActionStage({ActionOp::Assign(FieldRef::Meta("out"), e)}, 8, 0),
      "40-deep sum");
  EXPECT_EQ(out.out, 45u);
}

TEST_F(FlatProgramTest, OpsThatConsumeNarrowValuesMatchInterpreter) {
  SetInput("a", 16, 3);
  ExprPtr a16 = Expr::Field(FieldRef::Meta(Meta("a", 16)));
  ExprPtr ttl = Expr::Field(FieldRef::Header("ipv4", "ttl"));
  ExpectSame(
      ActionStage(
          {ActionOp::Assign(FieldRef::Header("ipv4", "ttl"),
                            Expr::Binary(Expr::Op::kSub, ttl,
                                         Expr::ConstU(1, 8))),
           ActionOp::Forward(Expr::Binary(Expr::Op::kAdd, a16, Expr::Param("p"))),
           ActionOp::RegWrite("r", Expr::Param("p"),
                              Expr::Binary(Expr::Op::kMul, a16, ttl)),
           ActionOp::If(Expr::Binary(Expr::Op::kGt, ttl, Expr::ConstU(10, 8)),
                        {ActionOp::Assign(FieldRef::Meta("out"),
                                          Expr::ConstU(1, 8))},
                        {ActionOp::Assign(FieldRef::Meta("out"),
                                          Expr::ConstU(2, 8))})},
          8, 2),
      "assign/forward/regwrite/if");
}

}  // namespace
}  // namespace ipsa::arch
