#include <gtest/gtest.h>

#include "controller/designs.h"
#include "rp4/ast.h"
#include "rp4/lexer.h"
#include "rp4/parser.h"
#include "rp4/printer.h"

namespace ipsa::rp4 {
namespace {

// --- lexer ------------------------------------------------------------------

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("stage ecmp { x = 0x1F; } // tail");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 8u);
  EXPECT_EQ((*tokens)[0].kind, TokKind::kIdent);
  EXPECT_EQ((*tokens)[0].text, "stage");
  EXPECT_EQ((*tokens)[2].text, "{");
  EXPECT_EQ((*tokens)[5].number, 0x1Fu);
  EXPECT_EQ(tokens->back().kind, TokKind::kEof);
}

TEST(LexerTest, CommentsStripped) {
  auto tokens = Tokenize("a /* multi\nline */ b // eol\nc");
  ASSERT_TRUE(tokens.ok());
  std::vector<std::string> idents;
  for (const auto& t : *tokens) {
    if (t.kind == TokKind::kIdent) idents.emplace_back(t.text);
  }
  EXPECT_EQ(idents, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(LexerTest, WidthPrefixedNumbers) {
  auto tokens = Tokenize("8w255 16w0x1f");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].number, 255u);
  EXPECT_EQ((*tokens)[1].number, 0x1Fu);
}

TEST(LexerTest, MultiCharPunct) {
  auto tokens = Tokenize("a << b >= c && d");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "<<");
  EXPECT_EQ((*tokens)[3].text, ">=");
  EXPECT_EQ((*tokens)[5].text, "&&");
}

TEST(LexerTest, ErrorsCarryLine) {
  auto tokens = Tokenize("ok\n$");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("line 2"), std::string::npos);
}

TEST(LexerTest, UnterminatedCommentRejected) {
  EXPECT_FALSE(Tokenize("a /* never closed").ok());
}

// --- parser: the paper's Fig. 5(a) code, verbatim structure -------------------

TEST(ParserTest, ParsesFig5aEcmpSnippet) {
  auto prog = ParseRp4Snippet(controller::designs::EcmpRp4Snippet());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_EQ(prog->tables.size(), 2u);
  EXPECT_EQ(prog->tables[0].name, "ecmp_ipv4");
  EXPECT_EQ(prog->tables[0].size, 4096u);
  ASSERT_EQ(prog->tables[0].key.size(), 2u);
  EXPECT_EQ(prog->tables[0].key[0].field.ToString(), "meta.nexthop");
  EXPECT_EQ(prog->tables[0].key[0].match_type, "hash");
  ASSERT_EQ(prog->actions.size(), 1u);
  EXPECT_EQ(prog->actions[0].name, "set_bd_dmac");
  ASSERT_EQ(prog->actions[0].params.size(), 2u);
  EXPECT_EQ(prog->actions[0].params[1].width_bits, 48u);
  ASSERT_EQ(prog->ingress_stages.size(), 1u);
  const arch::StageProgram& stage = prog->ingress_stages[0];
  EXPECT_EQ(stage.name, "ecmp");
  EXPECT_EQ(stage.parse_set, (std::vector<std::string>{"ipv4", "ipv6"}));
  ASSERT_EQ(stage.matcher.size(), 3u);  // v4, v6, else
  EXPECT_EQ(stage.matcher[0].table, "ecmp_ipv4");
  EXPECT_EQ(stage.matcher[1].table, "ecmp_ipv6");
  EXPECT_TRUE(stage.matcher[2].table.empty());
  EXPECT_EQ(stage.executor.at(1), "set_bd_dmac");
  EXPECT_EQ(stage.miss_action, "NoAction");
}

TEST(ParserTest, ParsesSrv6SnippetWithVarsizeHeader) {
  auto prog = ParseRp4Snippet(controller::designs::Srv6Rp4Snippet());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  ASSERT_EQ(prog->headers.size(), 1u);
  const Rp4HeaderDecl& srh = prog->headers[0];
  EXPECT_EQ(srh.name, "srh");
  EXPECT_EQ(srh.fields.size(), 7u);
  ASSERT_TRUE(srh.varsize.has_value());
  EXPECT_EQ(srh.varsize->len_field, "hdr_ext_len");
  EXPECT_EQ(srh.varsize->multiplier, 8u);
  ASSERT_TRUE(srh.parser.has_value());
  EXPECT_EQ(srh.parser->selector_field, "next_hdr");
}

TEST(ParserTest, ParsesProbeSnippetWithRegister) {
  auto prog = ParseRp4Snippet(controller::designs::ProbeRp4Snippet());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  ASSERT_EQ(prog->registers.size(), 1u);
  EXPECT_EQ(prog->registers[0].name, "probe_cnt");
  EXPECT_EQ(prog->registers[0].size, 1024u);
  // probe_count's body: reg write + conditional mark.
  ASSERT_EQ(prog->actions.size(), 1u);
  ASSERT_EQ(prog->actions[0].body.size(), 2u);
  EXPECT_EQ(prog->actions[0].body[0].kind, arch::ActionOp::Kind::kRegWrite);
  EXPECT_EQ(prog->actions[0].body[1].kind, arch::ActionOp::Kind::kIf);
}

TEST(ParserTest, FullProgramSections) {
  const char* source = R"(
headers {
  header ethernet {
    bit<48> dst_addr;
    bit<48> src_addr;
    bit<16> ether_type;
    implicit parser(ether_type) { 2048: ipv4; }
  }
  header ipv4 {
    bit<32> src_addr;
    bit<32> dst_addr;
  }
}
structs {
  struct metadata_t {
    bit<16> nexthop;
  } meta;
}
action set_nexthop(bit<16> nh) { meta.nexthop = nh; }
table fib {
  key = { ipv4.dst_addr: lpm; }
  actions = { set_nexthop; }
  size = 1024;
}
control rP4_Ingress {
  stage fib {
    parser { ipv4; }
    matcher { fib.apply(); }
    executor { 1: set_nexthop; default: NoAction; }
  }
}
user_funcs {
  func base { fib }
  ingress_entry: fib;
  egress_entry: fib;
}
)";
  auto prog = ParseRp4(source);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_EQ(prog->headers.size(), 2u);
  EXPECT_EQ(prog->headers[0].parser->links[0].second, "ipv4");
  EXPECT_EQ(prog->structs[0].alias, "meta");
  EXPECT_EQ(prog->funcs[0].stages, (std::vector<std::string>{"fib"}));
  EXPECT_EQ(prog->ingress_entry, "fib");
}

TEST(ParserTest, RejectsBareStageOutsideSnippet) {
  EXPECT_FALSE(ParseRp4("stage x { parser { } matcher { } executor { } }")
                   .ok());
  EXPECT_TRUE(
      ParseRp4Snippet("stage x { parser { } matcher { } executor { } }")
          .ok());
}

TEST(ParserTest, RejectsUnknownIdentifierInExpression) {
  auto prog = ParseRp4Snippet("action a() { meta.x = unknown_thing; }");
  EXPECT_FALSE(prog.ok());
}

TEST(ParserTest, RejectsNonRegisterSubscript) {
  EXPECT_FALSE(
      ParseRp4Snippet("action a() { not_a_reg[0] = 1; }").ok());
}

TEST(ParserTest, RejectsStructuralErrors) {
  // Missing semicolons, unbalanced braces, bad control names.
  EXPECT_FALSE(ParseRp4Snippet("table t { key = { meta.x: exact } }").ok());
  EXPECT_FALSE(ParseRp4Snippet("action a() { drop() }").ok());
  EXPECT_FALSE(ParseRp4("control Wrong_Name { }").ok());
  EXPECT_FALSE(ParseRp4Snippet("stage s { parser { } matcher {").ok());
  EXPECT_FALSE(
      ParseRp4Snippet("stage s { bogus_block { } }").ok());
  // Executor tags must be numbers or `default`.
  EXPECT_FALSE(ParseRp4Snippet(
                   "stage s { parser { } matcher { } "
                   "executor { abc: NoAction; } }")
                   .ok());
}

TEST(ParserTest, UpdateChecksumStatement) {
  auto prog = ParseRp4Snippet(R"(
action rewrite(bit<48> smac) {
  ethernet.src_addr = smac;
  ipv4.ttl = ipv4.ttl - 1;
  update_checksum(ipv4);
}
)");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  ASSERT_EQ(prog->actions[0].body.size(), 3u);
  const arch::ActionOp& op = prog->actions[0].body[2];
  EXPECT_EQ(op.kind, arch::ActionOp::Kind::kUpdateChecksum);
  EXPECT_EQ(op.instance, "ipv4");
  EXPECT_EQ(op.checksum_field, "hdr_checksum");
  // Round-trips through the printer.
  auto reparsed = ParseRp4Snippet(PrintActionDef(prog->actions[0]));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->actions[0].body[2].kind,
            arch::ActionOp::Kind::kUpdateChecksum);
}

TEST(ParserTest, NestedIfElseInActions) {
  auto prog = ParseRp4Snippet(R"(
register<bit<64>> r[16];
action a(bit<8> x) {
  if (x > 10) {
    if (x > 20) { drop(); } else { mark(); }
  } else {
    r[x] = r[x] + 1;
  }
}
)");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  const arch::ActionOp& outer = prog->actions[0].body[0];
  ASSERT_EQ(outer.kind, arch::ActionOp::Kind::kIf);
  ASSERT_EQ(outer.then_ops.size(), 1u);
  EXPECT_EQ(outer.then_ops[0].kind, arch::ActionOp::Kind::kIf);
  ASSERT_EQ(outer.else_ops.size(), 1u);
  EXPECT_EQ(outer.else_ops[0].kind, arch::ActionOp::Kind::kRegWrite);
}

// --- lowering ----------------------------------------------------------------

TEST(LoweringTest, TableKindsFromKeyMatchTypes) {
  auto prog = ParseRp4Snippet(R"(
headers {
  header ipv4 { bit<32> src_addr; bit<32> dst_addr; }
}
structs { struct m_t { bit<16> nexthop; } meta; }
table sel { key = { meta.nexthop: hash; ipv4.dst_addr: hash; } size = 64; }
table lpm { key = { ipv4.dst_addr: lpm; } size = 64; }
table tern { key = { ipv4.src_addr: ternary; ipv4.dst_addr: exact; } size = 8; }
table ex { key = { meta.nexthop: exact; } size = 8; }
)");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto design = LowerToDesign(*prog);
  ASSERT_TRUE(design.ok()) << design.status().ToString();
  ASSERT_EQ(design->tables.size(), 4u);
  EXPECT_EQ(design->tables[0].spec.match_kind, table::MatchKind::kSelector);
  EXPECT_EQ(design->tables[0].spec.key_width_bits, 48u);  // 16 + 32
  EXPECT_EQ(design->tables[1].spec.match_kind, table::MatchKind::kLpm);
  EXPECT_EQ(design->tables[2].spec.match_kind, table::MatchKind::kTernary);
  EXPECT_EQ(design->tables[3].spec.match_kind, table::MatchKind::kExact);
}

TEST(LoweringTest, SnippetWithUnresolvedFieldsFailsAlone) {
  // The ECMP snippet references ipv6.dst_addr, which only the *base design*
  // declares; lowering the snippet standalone must fail, while rp4bc's
  // incremental path merges it into the base first.
  auto prog = ParseRp4Snippet(controller::designs::EcmpRp4Snippet());
  ASSERT_TRUE(prog.ok());
  EXPECT_FALSE(LowerToDesign(*prog).ok());
}

TEST(LoweringTest, MixedHashAndExactRejected) {
  auto prog = ParseRp4Snippet(R"(
table bad {
  key = { meta.nexthop: hash; meta.bd: exact; }
  size = 16;
}
)");
  ASSERT_TRUE(prog.ok());
  EXPECT_FALSE(LowerToDesign(*prog).ok());
}

TEST(LoweringTest, MultipleLpmFieldsRejected) {
  auto prog = ParseRp4Snippet(R"(
headers {
  header ipv4 { bit<32> src_addr; bit<32> dst_addr; }
}
table bad {
  key = { ipv4.src_addr: lpm; ipv4.dst_addr: lpm; }
  size = 16;
}
)");
  ASSERT_TRUE(prog.ok());
  EXPECT_FALSE(LowerToDesign(*prog).ok());
}

// --- printer round trip ---------------------------------------------------------

TEST(PrinterTest, SnippetRoundTripsThroughText) {
  for (const std::string& source :
       {controller::designs::EcmpRp4Snippet(),
        controller::designs::Srv6Rp4Snippet(),
        controller::designs::ProbeRp4Snippet()}) {
    auto prog = ParseRp4Snippet(source);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    std::string printed = PrintRp4(*prog);
    auto reparsed = ParseRp4Snippet(printed);
    ASSERT_TRUE(reparsed.ok())
        << reparsed.status().ToString() << "\n--- printed ---\n"
        << printed;
    EXPECT_EQ(PrintRp4(*reparsed), printed);
  }
}

TEST(PrinterTest, ExprPrecedenceSurvivesRoundTrip) {
  auto prog = ParseRp4Snippet(
      "action a(bit<8> x) { meta.bd = (x + 1) * 2; "
      "if (x > 3 && x < 10) { mark(); } }");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  std::string printed = PrintActionDef(prog->actions[0]);
  auto reparsed = ParseRp4Snippet(printed);
  ASSERT_TRUE(reparsed.ok()) << printed;
  EXPECT_EQ(PrintActionDef(reparsed->actions[0]), printed);
}

}  // namespace
}  // namespace ipsa::rp4
