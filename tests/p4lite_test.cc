#include <gtest/gtest.h>

#include "controller/designs.h"
#include "p4lite/parser.h"

namespace ipsa::p4lite {
namespace {

TEST(P4ParserTest, ParsesBaseDesign) {
  auto hlir = ParseP4(controller::designs::BaseP4());
  ASSERT_TRUE(hlir.ok()) << hlir.status().ToString();
  // Header types: ethernet, ipv4, ipv6, tcp, udp.
  EXPECT_EQ(hlir->header_types.size(), 5u);
  EXPECT_EQ(hlir->header_instances.size(), 5u);
  // Base design tables: port_map, bridge_vrf, l2_l3, 2x host, 2x lpm,
  // nexthop in ingress; rewrite v4/v6 + dmac in egress.
  EXPECT_EQ(hlir->ingress.tables.size(), 8u);
  EXPECT_EQ(hlir->egress.tables.size(), 3u);
  EXPECT_EQ(hlir->ingress.actions.size(), 5u);
  EXPECT_EQ(hlir->egress.actions.size(), 3u);
  // Parse graph: start + v4 + v6 + tcp + udp.
  EXPECT_EQ(hlir->parse_states.size(), 5u);
}

TEST(P4ParserTest, ParseGraphTransitions) {
  auto hlir = ParseP4(controller::designs::BaseP4());
  ASSERT_TRUE(hlir.ok());
  const HlirParseState* start = hlir->FindState("start");
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->extracts, (std::vector<std::string>{"ethernet"}));
  EXPECT_EQ(start->select_field, "ether_type");
  ASSERT_EQ(start->transitions.size(), 2u);
  EXPECT_EQ(start->transitions[0].first, 0x0800u);
  EXPECT_EQ(start->transitions[0].second, "parse_ipv4");
}

TEST(P4ParserTest, BuildHeaderRegistryFlattensParseGraph) {
  auto hlir = ParseP4(controller::designs::BaseP4());
  ASSERT_TRUE(hlir.ok());
  auto registry = hlir->BuildHeaderRegistry();
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  EXPECT_EQ(registry->entry_type(), "ethernet");
  auto eth = registry->Get("ethernet");
  ASSERT_TRUE(eth.ok());
  EXPECT_EQ((*eth)->NextNameFor(0x0800), "ipv4");
  EXPECT_EQ((*eth)->NextNameFor(0x86DD), "ipv6");
  auto ipv4 = registry->Get("ipv4");
  ASSERT_TRUE(ipv4.ok());
  EXPECT_EQ((*ipv4)->NextNameFor(17), "udp");
}

TEST(P4ParserTest, Srv6VariantHasVarsizeSrh) {
  auto hlir = ParseP4(controller::designs::BasePlusSrv6P4());
  ASSERT_TRUE(hlir.ok()) << hlir.status().ToString();
  const arch::HeaderTypeDef* srh = hlir->FindHeaderType("srh_t");
  ASSERT_NE(srh, nullptr);
  ASSERT_TRUE(srh->var_size().has_value());
  EXPECT_EQ(srh->var_size()->len_field, "hdr_ext_len");
  auto registry = hlir->BuildHeaderRegistry();
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  auto ipv6 = registry->Get("ipv6");
  ASSERT_TRUE(ipv6.ok());
  EXPECT_EQ((*ipv6)->NextNameFor(43), "srh");
}

TEST(P4ParserTest, ProbeVariantHasRegister) {
  auto hlir = ParseP4(controller::designs::BasePlusProbeP4());
  ASSERT_TRUE(hlir.ok()) << hlir.status().ToString();
  ASSERT_EQ(hlir->registers.size(), 1u);
  EXPECT_EQ(hlir->registers[0].first, "probe_cnt");
  EXPECT_EQ(hlir->registers[0].second, 1024u);
}

TEST(P4ParserTest, ApplyTreeShape) {
  auto hlir = ParseP4(controller::designs::BaseP4());
  ASSERT_TRUE(hlir.ok());
  const HlirApplyNode& apply = hlir->ingress.apply;
  ASSERT_EQ(apply.kind, HlirApplyNode::Kind::kSeq);
  // port_map, bridge_vrf, l2_l3, if(l3).
  ASSERT_EQ(apply.children.size(), 4u);
  EXPECT_EQ(apply.children[0].kind, HlirApplyNode::Kind::kApply);
  EXPECT_EQ(apply.children[0].table, "port_map");
  EXPECT_EQ(apply.children[3].kind, HlirApplyNode::Kind::kIf);
  // Inside the l3 block: host chain, lpm chain, nexthop.
  EXPECT_EQ(apply.children[3].children.size(), 3u);
}

TEST(P4ParserTest, ElseIfDesugarsToNestedIf) {
  auto hlir = ParseP4(controller::designs::BaseP4());
  ASSERT_TRUE(hlir.ok());
  const HlirApplyNode& l3 = hlir->ingress.apply.children[3];
  const HlirApplyNode& host_chain = l3.children[0];
  ASSERT_EQ(host_chain.kind, HlirApplyNode::Kind::kIf);
  EXPECT_EQ(host_chain.children[0].table, "ipv4_host");
  ASSERT_EQ(host_chain.else_children.size(), 1u);
  EXPECT_EQ(host_chain.else_children[0].kind, HlirApplyNode::Kind::kIf);
  EXPECT_EQ(host_chain.else_children[0].children[0].table, "ipv6_host");
}

TEST(P4ParserTest, RejectsMalformedSource) {
  EXPECT_FALSE(ParseP4("header x {").ok());
  EXPECT_FALSE(ParseP4("control C() { apply { t.apply() } }").ok());
  EXPECT_FALSE(ParseP4("parser P() { state s { transition } }").ok());
  EXPECT_FALSE(ParseP4("garbage at top level").ok());
}

TEST(P4ParserTest, SelectOnNonLatestHeaderUnsupported) {
  const char* source = R"(
header a_t { bit<8> kind; }
header b_t { bit<8> x; }
struct headers_t { a_t a; b_t b; }
parser P(packet_in pkt, out headers_t hdr) {
  state start {
    pkt.extract(hdr.a);
    pkt.extract(hdr.b);
    transition select(hdr.a.kind) { 1: accept; default: accept; }
  }
}
control I(inout headers_t hdr) { apply { } }
)";
  auto hlir = ParseP4(source);
  ASSERT_TRUE(hlir.ok()) << hlir.status().ToString();
  // The limitation is reported when flattening, not when parsing.
  EXPECT_EQ(hlir->BuildHeaderRegistry().status().code(),
            StatusCode::kUnimplemented);
}

TEST(P4ParserTest, MarkToDropMapsToDrop) {
  const char* source = R"(
header e_t { bit<8> x; }
struct headers_t { e_t e; }
parser P(packet_in pkt, out headers_t hdr) {
  state start { pkt.extract(hdr.e); transition accept; }
}
control I(inout headers_t hdr) {
  action deny() { mark_to_drop(standard_metadata); }
  table acl { key = { hdr.e.x: exact; } actions = { deny; } size = 4; }
  apply { acl.apply(); }
}
)";
  auto hlir = ParseP4(source);
  ASSERT_TRUE(hlir.ok()) << hlir.status().ToString();
  ASSERT_EQ(hlir->ingress.actions.size(), 1u);
  ASSERT_EQ(hlir->ingress.actions[0].body.size(), 1u);
  EXPECT_EQ(hlir->ingress.actions[0].body[0].kind,
            arch::ActionOp::Kind::kDrop);
}

}  // namespace
}  // namespace ipsa::p4lite
