// The fuzzing harness's own test suite: generator determinism, clean
// differential runs, the fault-injection acceptance path (inject → detect →
// shrink → serialize → replay), and regression tests for the front-end
// hardening the fuzzer forced (malformed-but-plausible inputs must come back
// as Status errors, never as crashes).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "controller/controller.h"
#include "controller/designs.h"
#include "ipsa/ipbm.h"
#include "p4lite/parser.h"
#include "rp4/lexer.h"
#include "rp4/parser.h"
#include "rp4/printer.h"
#include "testing/differential.h"
#include "testing/generator.h"
#include "util/status.h"

namespace ipsa {
namespace {

using testing::CaseFails;
using testing::CaseFile;
using testing::DiffOptions;
using testing::GenerateCase;
using testing::GeneratedCase;
using testing::ParseCaseFile;
using testing::RenderCase;
using testing::RunCase;
using testing::SerializeCase;
using testing::ShrinkCase;

// --- generator ---------------------------------------------------------------

TEST(FuzzTest, GenerationIsDeterministic) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    auto a = RenderCase(GenerateCase(seed));
    auto b = RenderCase(GenerateCase(seed));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(SerializeCase(*a), SerializeCase(*b)) << "seed " << seed;
  }
}

TEST(FuzzTest, DistinctSeedsProduceDistinctCases) {
  auto a = RenderCase(GenerateCase(1));
  auto b = RenderCase(GenerateCase(2));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(SerializeCase(*a), SerializeCase(*b));
}

// --- partial rebuilds --------------------------------------------------------

// A fuzz-generated in-situ update, applied to two identical ipbm devices:
// one rebuilds lazily, recompiling only the TSPs the update touched; the
// other is forced to recompile every TSP by flipping its exec mode. Both
// must print the same plan and forward the case's packets identically.
TEST(FuzzTest, UpdateRebuildReusingTspsMatchesFullRebuild) {
  int checked = 0;
  for (uint64_t seed = 1; seed <= 40 && checked < 4; ++seed) {
    auto cf = RenderCase(GenerateCase(seed));
    ASSERT_TRUE(cf.ok()) << "seed " << seed << ": " << cf.status().ToString();
    if (cf->script.empty()) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    ipbm::IpbmSwitch partial_dev, full_dev;
    controller::Rp4FlowController partial(partial_dev, {});
    controller::Rp4FlowController full(full_dev, {});
    controller::SnippetResolver resolver =
        [&](const std::string&) -> Result<std::string> { return cf->snippet; };
    // Cases sized for the deepened pools of the million-entry sweep do not
    // fit the default devices used here; they are skipped.
    auto loaded = partial.LoadBaseFromP4(cf->p4_v1);
    if (!loaded.ok() &&
        loaded.status().code() == StatusCode::kResourceExhausted) {
      continue;
    }
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(full.LoadBaseFromP4(cf->p4_v1).ok());
    (void)partial_dev.PlanToString();  // compile before the update
    for (controller::Rp4FlowController* c : {&partial, &full}) {
      auto t = c->ApplyScript(cf->script, resolver);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
    }
    const std::string plan = partial_dev.PlanToString();
    full_dev.SetExecMode(arch::ExecMode::kInterpret);
    full_dev.SetExecMode(arch::ExecMode::kSpecialize);
    EXPECT_EQ(plan, full_dev.PlanToString());

    for (const testing::Op& op : cf->ops) {
      if (op.kind != testing::Op::Kind::kPacket) continue;
      net::Packet a{std::span<const uint8_t>(op.packet.bytes)};
      net::Packet b = a;
      auto ra = partial_dev.Process(a, op.packet.in_port);
      auto rb = full_dev.Process(b, op.packet.in_port);
      ASSERT_EQ(ra.ok(), rb.ok());
      if (!ra.ok()) continue;
      EXPECT_EQ(ra->dropped, rb->dropped);
      EXPECT_EQ(ra->egress_port, rb->egress_port);
      EXPECT_TRUE(a == b) << "packet bytes differ";
    }
    ++checked;
  }
  EXPECT_GT(checked, 0) << "no generated case carried an update";
}

// --- differential runs -------------------------------------------------------

TEST(FuzzTest, GeneratedCasesRunCleanAcrossAllConfigurations) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto cf = RenderCase(GenerateCase(seed));
    ASSERT_TRUE(cf.ok()) << "seed " << seed << ": " << cf.status().ToString();
    auto report = RunCase(*cf);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
    EXPECT_FALSE(report->diverged) << "seed " << seed << ": "
                                   << report->detail;
  }
}

// The stateful/extern sweep: the generator must actually emit register-
// accumulating programs (which omit the update op — register state is a
// genuine reload-vs-in-situ model divergence) and extern-using programs
// whose update snippet round-trips sat_add/fxp_* through the rp4
// printer/parser, and all of them must hold across the six-config oracle.
TEST(FuzzTest, ExternAndRegisterCasesRunCleanAcrossAllConfigurations) {
  int stateful_seen = 0;
  int extern_update_seen = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    GeneratedCase gen = GenerateCase(seed);
    auto cf = RenderCase(gen);
    ASSERT_TRUE(cf.ok()) << "seed " << seed << ": " << cf.status().ToString();
    const bool stateful = !gen.spec.registers.empty();
    const bool uses_externs = cf->p4_v1.find("sat_add(") != std::string::npos ||
                              cf->p4_v1.find("fxp_") != std::string::npos;
    if (stateful) {
      ASSERT_NE(cf->p4_v1.find("register<bit<64>>"), std::string::npos);
      ASSERT_TRUE(cf->p4_v2.empty())
          << "seed " << seed << ": stateful case must not carry an update";
    }
    if (!stateful && !uses_externs) continue;
    if (!stateful && uses_externs && !cf->snippet.empty()) {
      ++extern_update_seen;
    }
    stateful_seen += stateful ? 1 : 0;
    auto report = RunCase(*cf);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
    EXPECT_FALSE(report->diverged) << "seed " << seed << ": "
                                   << report->detail;
  }
  // Both flavors must actually occur in the sweep, or the oracle is not
  // covering what this test claims it covers.
  EXPECT_GE(stateful_seen, 3);
  EXPECT_GE(extern_update_seen, 1);
}

// The million-entry size sweep end to end: find a generated case declaring
// a 2^20-entry table, then run the full differential matrix over it. The
// harnesses must size their pools from the declared maximum (the default
// pools hold ~256k rows) and all five configurations must stay equivalent.
TEST(FuzzTest, MillionEntrySpecRunsCleanAcrossAllConfigurations) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    auto cf = RenderCase(GenerateCase(seed));
    ASSERT_TRUE(cf.ok()) << "seed " << seed << ": " << cf.status().ToString();
    if (cf->p4_v1.find("size = 1048576") == std::string::npos) continue;
    auto report = RunCase(*cf);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
    EXPECT_FALSE(report->diverged) << "seed " << seed << ": "
                                   << report->detail;
    return;
  }
  FAIL() << "no seed in [1,100] produced a million-entry table spec";
}

// The full failure workflow on an intentionally broken compiled path: the
// injected fault must be detected, the shrunk repro must survive a
// serialize/parse round trip, and the repro must replay to failure with the
// fault and to success without it.
TEST(FuzzTest, InjectedFaultIsDetectedShrunkAndReplayable) {
  DiffOptions faulty;
  faulty.inject_fault = true;

  GeneratedCase found;
  bool have = false;
  for (uint64_t seed = 1; seed <= 10 && !have; ++seed) {
    GeneratedCase gen = GenerateCase(seed);
    auto cf = RenderCase(gen);
    ASSERT_TRUE(cf.ok()) << cf.status().ToString();
    if (CaseFails(*cf, faulty)) {
      found = gen;
      have = true;
    }
  }
  // The fault perturbs the first compiled assign/forward op; across ten
  // seeds at least one program must execute such an op.
  ASSERT_TRUE(have) << "no seed in [1,10] diverges under the injected fault";

  auto shrunk = ShrinkCase(found, faulty);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();

  auto replayed = ParseCaseFile(SerializeCase(*shrunk));
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_TRUE(CaseFails(*replayed, faulty))
      << "shrunk repro no longer reproduces under the fault";
  EXPECT_FALSE(CaseFails(*replayed, DiffOptions{}))
      << "shrunk repro fails even without the fault";
}

// --- front-end hardening regressions ----------------------------------------
//
// Each of these inputs previously crashed a front end (stack overflow) or
// was silently accepted. They must now produce Status errors.

std::string Repeat(const std::string& s, int n) {
  std::string out;
  out.reserve(s.size() * n);
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// A minimal well-formed P4lite program with an injectable action body,
// apply body, header-field width and action parameter list.
std::string P4liteScaffold(const std::string& action_body,
                           const std::string& apply_body,
                           const std::string& width,
                           const std::string& action_params = "") {
  return "header h_t {\n"
         "  bit<" + width + "> f;\n"
         "  bit<16> sel;\n"
         "}\n"
         "struct metadata_t {\n"
         "  bit<8> m;\n"
         "}\n"
         "struct headers_t {\n"
         "  h_t h;\n"
         "}\n"
         "register<bit<64>> r[16];\n"
         "parser MainParser(packet_in pkt, out headers_t hdr, inout metadata_t meta) {\n"
         "  state start {\n"
         "    pkt.extract(hdr.h);\n"
         "    transition accept;\n"
         "  }\n"
         "}\n"
         "control MainIngress(inout headers_t hdr, inout metadata_t meta) {\n"
         "  action a(" + action_params + ") {\n" + action_body + "\n  }\n"
         "  table t {\n"
         "    key = { meta.m: exact; }\n"
         "    actions = { a; NoAction; }\n"
         "    size = 8;\n"
         "  }\n"
         "  apply {\n" + apply_body + "\n  }\n"
         "}\n"
         "control MainEgress(inout headers_t hdr, inout metadata_t meta) {\n"
         "  apply {\n"
         "  }\n"
         "}\n";
}

void ExpectP4liteError(const std::string& source, const std::string& needle) {
  auto hlir = p4lite::ParseP4(source);
  ASSERT_FALSE(hlir.ok()) << "malformed program accepted";
  EXPECT_NE(hlir.status().message().find(needle), std::string::npos)
      << hlir.status().ToString();
}

TEST(FrontEndHardeningTest, P4liteScaffoldIsValid) {
  // The malformed variants below only prove something if the unmodified
  // scaffold parses.
  auto hlir =
      p4lite::ParseP4(P4liteScaffold("    meta.m = 1;", "    t.apply();", "8"));
  ASSERT_TRUE(hlir.ok()) << hlir.status().ToString();
}

TEST(FrontEndHardeningTest, P4liteDeepExpressionRejected) {
  // 50k nested parens overflowed the recursive-descent stack before the
  // depth guard existed.
  std::string body =
      "meta.m = " + Repeat("(", 50000) + "1" + Repeat(")", 50000) + ";";
  ExpectP4liteError(P4liteScaffold(body, "t.apply();", "8"), "too deep");
}

TEST(FrontEndHardeningTest, P4liteDeepActionStatementRejected) {
  std::string body = Repeat("if (meta.m != 0) { ", 50000) + "meta.m = 1;" +
                     Repeat(" }", 50000);
  ExpectP4liteError(P4liteScaffold(body, "t.apply();", "8"), "too deep");
}

TEST(FrontEndHardeningTest, P4liteDeepApplyNestingRejected) {
  std::string body = Repeat("if (meta.m == 0) { ", 50000) + "t.apply();" +
                     Repeat(" }", 50000);
  ExpectP4liteError(P4liteScaffold("meta.m = 1;", body, "8"), "too deep");
}

TEST(FrontEndHardeningTest, P4liteZeroWidthFieldRejected) {
  ExpectP4liteError(P4liteScaffold("meta.m = 1;", "t.apply();", "0"), "width");
}

TEST(FrontEndHardeningTest, P4liteHugeWidthFieldRejected) {
  ExpectP4liteError(P4liteScaffold("meta.m = 1;", "t.apply();", "999999999"),
                    "width");
}

// A minimal rP4 prefix: the injected defect sits early enough that the
// remainder of the program never matters.
std::string Rp4Scaffold(const std::string& field_width,
                        const std::string& action_body,
                        const std::string& action_params = "") {
  return "headers {\n"
         "  header h {\n"
         "    bit<" + field_width + "> f;\n"
         "    bit<16> sel;\n"
         "  }\n"
         "}\n"
         "entry_header = h;\n"
         "structs {\n"
         "  struct metadata_t {\n"
         "    bit<8> m;\n"
         "  } meta;\n"
         "}\n"
         "register<bit<64>> r[16];\n"
         "action a(" + action_params + ") {\n"
         "  " + action_body + "\n"
         "}\n"
         "table t {\n"
         "  key = {\n"
         "    meta.m: exact;\n"
         "  }\n"
         "  actions = { a; NoAction; }\n"
         "  size = 8;\n"
         "}\n"
         "control rP4_Ingress {\n"
         "  stage t {\n"
         "    parser { }\n"
         "    matcher {\n"
         "      t.apply();\n"
         "    }\n"
         "    executor {\n"
         "      1: a;\n"
         "      default: NoAction;\n"
         "    }\n"
         "  }\n"
         "}\n"
         "control rP4_Egress {\n"
         "}\n"
         "user_funcs {\n"
         "  func base { t; }\n"
         "  ingress_entry: t;\n"
         "}\n";
}

void ExpectRp4Error(const std::string& source, const std::string& needle) {
  auto program = rp4::ParseRp4(source);
  ASSERT_FALSE(program.ok()) << "malformed program accepted";
  EXPECT_NE(program.status().message().find(needle), std::string::npos)
      << program.status().ToString();
}

TEST(FrontEndHardeningTest, Rp4ScaffoldIsValid) {
  auto program = rp4::ParseRp4(Rp4Scaffold("8", "meta.m = 1;"));
  ASSERT_TRUE(program.ok()) << program.status().ToString();
}

TEST(FrontEndHardeningTest, Rp4DeepExpressionRejected) {
  std::string body =
      "meta.m = " + Repeat("(", 50000) + "1" + Repeat(")", 50000) + ";";
  ExpectRp4Error(Rp4Scaffold("8", body), "too deep");
}

TEST(FrontEndHardeningTest, Rp4DeepStatementNestingRejected) {
  std::string body = Repeat("if (meta.m != 0) { ", 50000) + "meta.m = 1;" +
                     Repeat(" }", 50000);
  ExpectRp4Error(Rp4Scaffold("8", body), "too deep");
}

TEST(FrontEndHardeningTest, Rp4ZeroWidthFieldRejected) {
  ExpectRp4Error(Rp4Scaffold("0", "meta.m = 1;"), "width");
}

TEST(FrontEndHardeningTest, Rp4HugeWidthFieldRejected) {
  ExpectRp4Error(Rp4Scaffold("999999999", "meta.m = 1;"), "width");
}

// One width check covers every `bit<N>` and every get_raw/set_raw width in
// both front ends. 4294967312 is 2^32 + 16: a bare uint32 cast would have
// read it as 16.
const char* const kBadWidths[] = {"0", "4097", "4294967312"};

TEST(FrontEndHardeningTest, P4liteActionParamWidthRejected) {
  for (const char* w : kBadWidths) {
    ExpectP4liteError(P4liteScaffold("meta.m = 1;", "t.apply();", "8",
                                     std::string("bit<") + w + "> x"),
                      "width");
  }
}

TEST(FrontEndHardeningTest, P4liteRawWidthRejected) {
  for (const char* w : kBadWidths) {
    ExpectP4liteError(
        P4liteScaffold(std::string("meta.m = get_raw(hdr.h, 0, ") + w + ");",
                       "t.apply();", "8"),
        "width");
    ExpectP4liteError(
        P4liteScaffold(std::string("set_raw(hdr.h, 0, ") + w + ", 1);",
                       "t.apply();", "8"),
        "width");
  }
}

TEST(FrontEndHardeningTest, P4liteRegisterWidthRejected) {
  std::string program = P4liteScaffold("meta.m = 1;", "t.apply();", "8");
  program.replace(program.find("bit<64>"), 7, "bit<4097>");
  ExpectP4liteError(program, "width");
}

TEST(FrontEndHardeningTest, Rp4ActionParamWidthRejected) {
  for (const char* w : kBadWidths) {
    ExpectRp4Error(
        Rp4Scaffold("8", "meta.m = 1;", std::string("bit<") + w + "> x"),
        "width");
  }
}

TEST(FrontEndHardeningTest, Rp4RawWidthRejected) {
  for (const char* w : kBadWidths) {
    ExpectRp4Error(
        Rp4Scaffold("8", std::string("meta.m = get_raw(h, 0, ") + w + ");"),
        "width");
    ExpectRp4Error(
        Rp4Scaffold("8", std::string("set_raw(h, 0, ") + w + ", 1);"),
        "width");
  }
}

TEST(FrontEndHardeningTest, WidthBoundsAreInclusive) {
  for (const char* w : {"1", "4096"}) {
    std::string param = std::string("bit<") + w + "> x";
    std::string raw = std::string("set_raw(h, 0, ") + w + ", 1);";
    auto hlir = p4lite::ParseP4(P4liteScaffold(raw, "t.apply();", w, param));
    EXPECT_TRUE(hlir.ok()) << w << ": " << hlir.status().ToString();
    auto program = rp4::ParseRp4(Rp4Scaffold(w, raw, param));
    EXPECT_TRUE(program.ok()) << w << ": " << program.status().ToString();
  }
}

// --- front-end parity --------------------------------------------------------
//
// The P4 and rP4 front ends share one statement/expression language, so an
// action body must parse to the same ActionDef through either. `$` marks
// where P4 may spell a header instance `hdr.<instance>`; the P4 front end
// parses each body with and without that prefix, the rP4 front end without.

const char* const kParityParams = "bit<9> p, bit<16> v";

const char* const kParityBodies[] = {
    // statements
    "meta.m = 1;",
    "$h.f = v;",
    "r[meta.m] = v;",
    "if (meta.m == 1) { $h.f = 2; } else { meta.m = 3; }",
    "if ($h.isValid()) { forward(p); }",
    "drop();",
    "mark_to_drop();",
    "mark_to_drop(standard_metadata);",
    "mark();",
    "no_op();",
    "NoAction();",
    "forward(p + 1);",
    "push_header($h);",
    "push_header($h, $h, 4);",
    "pop_header($h);",
    "update_checksum($h);",
    "update_checksum($h, sel);",
    "set_raw($h, meta.m * 8, 16, v);",
    // expressions
    "meta.m = true || false && !(meta.m != 0);",
    "meta.m = $h.f | $h.sel ^ v & 0xff;",
    "meta.m = (meta.m < 1) + (meta.m <= 2) + (meta.m > 3) + (meta.m >= 4);",
    "meta.m = meta.m << 2 >> 1;",
    "meta.m = meta.m + v - p * 3;",
    "meta.m = ~meta.m;",
    "meta.m = r[$h.sel] + r[0];",
    "meta.m = get_raw($h, 8, 16);",
    "meta.m = sat_add(meta.m, v);",
    "meta.m = fxp_quantize(v, 4) + fxp_dequantize(v, 4);",
    "meta.m = 8w255;",
};

std::string WithHeaderPrefix(std::string body, const std::string& prefix) {
  for (size_t at = body.find('$'); at != std::string::npos;
       at = body.find('$', at + prefix.size())) {
    body.replace(at, 1, prefix);
  }
  return body;
}

// The printed `a` action of a P4 scaffold program, or the error.
std::string PrintedP4Action(const std::string& body) {
  auto hlir = p4lite::ParseP4(
      P4liteScaffold(body, "t.apply();", "8", kParityParams));
  if (!hlir.ok()) return "P4 error: " + hlir.status().ToString();
  return rp4::PrintActionDef(hlir->ingress.actions.at(0));
}

std::string PrintedRp4Action(const std::string& body) {
  auto program = rp4::ParseRp4(Rp4Scaffold("8", body, kParityParams));
  if (!program.ok()) return "rP4 error: " + program.status().ToString();
  return rp4::PrintActionDef(*program->FindAction("a"));
}

TEST(FrontEndParityTest, EveryActionFormParsesTheSameThroughBothFrontEnds) {
  for (const char* body : kParityBodies) {
    std::string rp4 = PrintedRp4Action(WithHeaderPrefix(body, ""));
    EXPECT_EQ(rp4.find("error"), std::string::npos) << body << "\n" << rp4;
    EXPECT_EQ(PrintedP4Action(WithHeaderPrefix(body, "")), rp4) << body;
    EXPECT_EQ(PrintedP4Action(WithHeaderPrefix(body, "hdr.")), rp4) << body;
  }
}

// --- error-path sweep ---------------------------------------------------------
//
// Every committed program, cut after each of its tokens, must come back from
// its front end as a Result: the whole text parses, and no prefix crashes,
// hangs or trips a sanitizer. Under tools/run_sanitized.sh this walks every
// error path of both parsers.

std::string ReadFileOrDie(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

template <typename ParseFn>
void SweepPrefixes(const std::string& source, const std::string& label,
                   ParseFn parse) {
  auto whole = parse(source);
  ASSERT_TRUE(whole.ok()) << label << ": " << whole.status().ToString();
  auto tokens = rp4::Tokenize(source);
  ASSERT_TRUE(tokens.ok()) << label;
  for (const rp4::Token& token : *tokens) {
    if (token.kind == rp4::TokKind::kEof) break;
    size_t end =
        static_cast<size_t>(token.text.data() - source.data()) +
        token.text.size();
    auto cut = parse(std::string_view(source).substr(0, end));
    if (!cut.ok()) {
      EXPECT_FALSE(cut.status().message().empty()) << label << " @" << end;
    }
  }
}

TEST(FrontEndHardeningTest, EveryTokenPrefixOfEveryProgramReturnsAStatus) {
  namespace designs = controller::designs;
  for (const std::string* p4 :
       {&designs::BaseP4(), &designs::BasePlusEcmpP4(),
        &designs::BasePlusSrv6P4(), &designs::BasePlusProbeP4()}) {
    SweepPrefixes(*p4, "built-in P4", p4lite::ParseP4);
  }
  int rp4_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(IPSA_EXAMPLES_RP4_DIR)) {
    if (entry.path().extension() != ".rp4") continue;
    ++rp4_files;
    SweepPrefixes(ReadFileOrDie(entry.path()), entry.path().string(),
                  rp4::ParseRp4);
  }
  EXPECT_GE(rp4_files, 5);
  int cases = 0;
  for (const auto& entry : std::filesystem::directory_iterator(IPSA_CORPUS_DIR)) {
    if (entry.path().extension() != ".rp4fuzz") continue;
    auto cf = ParseCaseFile(ReadFileOrDie(entry.path()));
    ASSERT_TRUE(cf.ok()) << entry.path();
    ++cases;
    SweepPrefixes(cf->p4_v1, entry.path().string(), p4lite::ParseP4);
    if (!cf->p4_v2.empty()) {
      SweepPrefixes(cf->p4_v2, entry.path().string() + " v2",
                    p4lite::ParseP4);
    }
    if (!cf->snippet.empty()) {
      SweepPrefixes(cf->snippet, entry.path().string() + " snippet",
                    rp4::ParseRp4Snippet);
    }
  }
  EXPECT_GE(cases, 12);
}

}  // namespace
}  // namespace ipsa
