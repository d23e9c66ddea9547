// The fuzzing harness's own test suite: generator determinism, clean
// differential runs, the fault-injection acceptance path (inject → detect →
// shrink → serialize → replay), and regression tests for the front-end
// hardening the fuzzer forced (malformed-but-plausible inputs must come back
// as Status errors, never as crashes).
#include <gtest/gtest.h>

#include <string>

#include "p4lite/parser.h"
#include "rp4/parser.h"
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
// apply body, and header-field width.
std::string P4liteScaffold(const std::string& action_body,
                           const std::string& apply_body,
                           const std::string& width) {
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
         "parser MainParser(packet_in pkt, out headers_t hdr, inout metadata_t meta) {\n"
         "  state start {\n"
         "    pkt.extract(hdr.h);\n"
         "    transition accept;\n"
         "  }\n"
         "}\n"
         "control MainIngress(inout headers_t hdr, inout metadata_t meta) {\n"
         "  action a() {\n" + action_body + "\n  }\n"
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
                        const std::string& action_body) {
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
         "action a() {\n"
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

}  // namespace
}  // namespace ipsa
