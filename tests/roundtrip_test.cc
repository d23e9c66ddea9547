// Printer-oracle round-trip: parse → print → parse must reach a fixpoint.
//
// The rP4 AST has no operator==, so equality is checked through the printer:
// if print(parse(print(parse(text)))) == print(parse(text)), the second parse
// reconstructed the same tree the first one built (the printer is a pure
// function of the AST). Inputs are every committed program under
// examples/rp4/ plus freshly generated programs pushed through the real
// p4lite → rp4fc flow, so the oracle covers both hand-blessed and random
// shapes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/rp4fc.h"
#include "controller/designs.h"
#include "p4lite/parser.h"
#include "rp4/parser.h"
#include "rp4/printer.h"
#include "testing/generator.h"

namespace ipsa {
namespace {

std::string ReadFileOrDie(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Parses `source`, prints it, re-parses the print, and checks the two
// prints agree. Returns the first print for further chaining.
std::string RoundTrip(const std::string& source, const std::string& label) {
  auto first = rp4::ParseRp4(source);
  EXPECT_TRUE(first.ok()) << label << ": " << first.status().ToString();
  if (!first.ok()) return {};
  std::string printed = rp4::PrintRp4(*first);
  auto second = rp4::ParseRp4(printed);
  EXPECT_TRUE(second.ok()) << label << " (reparse): "
                           << second.status().ToString() << "\n"
                           << printed;
  if (!second.ok()) return {};
  EXPECT_EQ(printed, rp4::PrintRp4(*second)) << label;
  return printed;
}

TEST(RoundTripTest, EveryExampleProgram) {
  std::filesystem::path dir(IPSA_EXAMPLES_RP4_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".rp4") continue;
    ++count;
    RoundTrip(ReadFileOrDie(entry.path()), entry.path().filename().string());
  }
  // base, base_ecmp, base_srv6, base_probe at minimum.
  EXPECT_GE(count, 4) << "examples/rp4/ lost its committed programs";
}

TEST(RoundTripTest, BuiltinP4DesignsLowerToTheCommittedExamples) {
  // examples/rp4/ holds what rp4fc emits for the four built-in P4 designs;
  // any change to either front end or to rp4fc that moves one byte of that
  // output shows up here.
  struct Pin {
    const std::string& p4;
    const char* file;
  };
  const Pin pins[] = {
      {controller::designs::BaseP4(), "base.rp4"},
      {controller::designs::BasePlusEcmpP4(), "base_ecmp.rp4"},
      {controller::designs::BasePlusSrv6P4(), "base_srv6.rp4"},
      {controller::designs::BasePlusProbeP4(), "base_probe.rp4"},
  };
  for (const Pin& pin : pins) {
    auto hlir = p4lite::ParseP4(pin.p4);
    ASSERT_TRUE(hlir.ok()) << pin.file << ": " << hlir.status().ToString();
    auto fc = compiler::RunRp4fc(*hlir);
    ASSERT_TRUE(fc.ok()) << pin.file << ": " << fc.status().ToString();
    EXPECT_EQ(rp4::PrintRp4(fc->program),
              ReadFileOrDie(std::filesystem::path(IPSA_EXAMPLES_RP4_DIR) /
                            pin.file))
        << pin.file;
  }
}

TEST(RoundTripTest, GeneratedProgramsThroughRp4fc) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    testing::GeneratedCase gen = testing::GenerateCase(seed);
    std::string p4 = testing::RenderP4(gen.spec, 1);
    auto hlir = p4lite::ParseP4(p4);
    ASSERT_TRUE(hlir.ok()) << "seed " << seed << ": "
                           << hlir.status().ToString();
    auto fc = compiler::RunRp4fc(*hlir);
    ASSERT_TRUE(fc.ok()) << "seed " << seed << ": " << fc.status().ToString();
    RoundTrip(rp4::PrintRp4(fc->program), "seed " + std::to_string(seed));
  }
}

TEST(RoundTripTest, PrintIsAFixpointAfterOneIteration) {
  // Printing is canonical: the print of a reparse must not keep mutating on
  // further iterations (idempotence catches printers that normalize
  // differently on each pass).
  std::string source =
      ReadFileOrDie(std::filesystem::path(IPSA_EXAMPLES_RP4_DIR) / "base.rp4");
  std::string once = RoundTrip(source, "base.rp4");
  ASSERT_FALSE(once.empty());
  EXPECT_EQ(once, RoundTrip(once, "base.rp4 (second iteration)"));
}

TEST(RoundTripTest, GeneratedUpdateSnippetsParse) {
  // The in-situ update snippet the generator derives from rp4fc output must
  // stay inside the snippet grammar.
  int with_update = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto cf = testing::RenderCase(testing::GenerateCase(seed));
    ASSERT_TRUE(cf.ok()) << "seed " << seed << ": " << cf.status().ToString();
    if (cf->snippet.empty()) continue;
    ++with_update;
    auto snip = rp4::ParseRp4Snippet(cf->snippet);
    EXPECT_TRUE(snip.ok()) << "seed " << seed << ": "
                           << snip.status().ToString() << "\n"
                           << cf->snippet;
  }
  EXPECT_GT(with_update, 0);
}

}  // namespace
}  // namespace ipsa
