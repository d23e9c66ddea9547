// rp4fuzz — differential fuzzer for the two design flows.
//
// Generates seeded random (program, traffic, churn) cases and replays each
// through five device configurations (pbm interpreter/specialized, ipbm
// interpreter/specialized/parallel), asserting bit-identical TX streams, equal
// per-packet results and table hit/miss deltas, and matching telemetry —
// including an in-situ function update on ipbm vs a full reload on pbm mid
// schedule. On divergence the failing case is greedily shrunk and written as
// a self-contained repro file that `rp4fuzz --replay` (and the committed
// tests/corpus/ suite) re-executes.
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>

#include "testing/differential.h"
#include "testing/generator.h"

namespace ipsa::tools {
namespace {

constexpr char kUsage[] =
    "rp4fuzz — differential fuzzer for the rP4/PISA design flows\n"
    "\n"
    "usage: rp4fuzz [options]\n"
    "       rp4fuzz --replay <case-file>\n"
    "\n"
    "options:\n"
    "  --cases N        run N generated cases (default 100)\n"
    "  --seconds S      run until S wall seconds elapsed (overrides --cases)\n"
    "  --seed S         first seed (default 1; case i uses seed S+i)\n"
    "  --seed-from-env  take the first seed from $RP4FUZZ_SEED\n"
    "  --out-dir DIR    where failure repro files are written (default .)\n"
    "  --inject-fault   perturb the compiled fast path (harness self-test:\n"
    "                   every case must now diverge, shrink, and replay)\n"
    "  --workers N      parallel batch executor width (default 4)\n"
    "  --replay FILE    re-execute one repro/corpus file and report\n"
    "  --no-shrink      write failing cases unshrunk (debugging the shrinker)\n";

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return InternalError("cannot write '" + path + "'");
  out << content;
  return OkStatus();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFound("cannot open '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int ReplayOne(const std::string& path, const testing::DiffOptions& options) {
  auto text = ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "rp4fuzz: %s\n", text.status().ToString().c_str());
    return 2;
  }
  auto c = testing::ParseCaseFile(*text);
  if (!c.ok()) {
    std::fprintf(stderr, "rp4fuzz: %s: %s\n", path.c_str(),
                 c.status().ToString().c_str());
    return 2;
  }
  auto report = testing::RunCase(*c, options);
  if (!report.ok()) {
    std::fprintf(stderr, "rp4fuzz: replay %s: %s\n", path.c_str(),
                 report.status().ToString().c_str());
    return 1;
  }
  if (report->diverged) {
    std::printf("DIVERGED %s\n  %s\n", path.c_str(), report->detail.c_str());
    return 1;
  }
  std::printf("OK %s (seed %llu)\n", path.c_str(),
              static_cast<unsigned long long>(c->seed));
  return 0;
}

// Shrinks (unless disabled), serializes, and writes a repro for a failing
// case. Returns the path, or "" if even writing failed.
std::string WriteRepro(const testing::GeneratedCase& gen,
                       const testing::CaseFile& rendered,
                       const testing::DiffOptions& options,
                       const std::string& out_dir, bool shrink) {
  testing::CaseFile repro = rendered;
  if (shrink) {
    auto shrunk = testing::ShrinkCase(gen, options);
    if (shrunk.ok()) {
      repro = std::move(*shrunk);
    } else {
      std::fprintf(stderr, "rp4fuzz: shrink failed (%s); writing unshrunk\n",
                   shrunk.status().ToString().c_str());
    }
  }
  std::string path = out_dir + "/repro_seed" + std::to_string(repro.seed) +
                     ".rp4fuzz";
  if (Status s = WriteFile(path, testing::SerializeCase(repro)); !s.ok()) {
    std::fprintf(stderr, "rp4fuzz: %s\n", s.ToString().c_str());
    return "";
  }
  return path;
}

int Main(int argc, char** argv) {
  uint64_t cases = 100;
  double seconds = 0;
  uint64_t seed = 1;
  std::string out_dir = ".";
  std::string replay;
  bool shrink = true;
  testing::DiffOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    // Both `--flag value` and `--flag=value` spellings are accepted.
    std::string inline_value;
    bool has_inline = false;
    if (size_t eq = a.find('='); eq != std::string::npos && a.rfind("--", 0) == 0) {
      inline_value = a.substr(eq + 1);
      a = a.substr(0, eq);
      has_inline = true;
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "-h" || a == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (a == "--cases") {
      if (const char* v = next()) cases = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      if (const char* v = next()) seconds = std::strtod(v, nullptr);
    } else if (a == "--seed") {
      if (const char* v = next()) seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seed-from-env") {
      if (const char* v = std::getenv("RP4FUZZ_SEED")) {
        seed = std::strtoull(v, nullptr, 10);
      }
    } else if (a == "--out-dir") {
      if (const char* v = next()) out_dir = v;
    } else if (a == "--inject-fault") {
      options.inject_fault = true;
    } else if (a == "--workers") {
      if (const char* v = next()) {
        options.parallel_workers =
            static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
      }
    } else if (a == "--replay") {
      if (const char* v = next()) replay = v;
    } else if (a == "--no-shrink") {
      shrink = false;
    } else {
      std::fprintf(stderr, "rp4fuzz: unknown option '%s'\n%s", a.c_str(),
                   kUsage);
      return 2;
    }
  }

  if (!replay.empty()) return ReplayOne(replay, options);

  auto start = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  uint64_t ran = 0;
  for (uint64_t i = 0;; ++i) {
    if (seconds > 0) {
      if (elapsed() >= seconds) break;
    } else if (i >= cases) {
      break;
    }
    uint64_t case_seed = seed + i;
    testing::GeneratedCase gen = testing::GenerateCase(case_seed);
    auto rendered = testing::RenderCase(gen);
    if (!rendered.ok()) {
      // The generated program failed to compile — a generator or front-end
      // bug either way. Preserve the source for diagnosis.
      std::string path =
          out_dir + "/repro_seed" + std::to_string(case_seed) + ".p4";
      (void)WriteFile(path, testing::RenderP4(gen.spec, 1));
      std::fprintf(stderr,
                   "rp4fuzz: seed %llu failed to render: %s\n  source: %s\n",
                   static_cast<unsigned long long>(case_seed),
                   rendered.status().ToString().c_str(), path.c_str());
      return 1;
    }
    auto report = testing::RunCase(*rendered, options);
    bool failed = !report.ok() || report->diverged;
    if (failed) {
      std::string detail = report.ok() ? report->detail
                                       : report.status().ToString();
      std::fprintf(stderr, "rp4fuzz: seed %llu FAILED\n  %s\n",
                   static_cast<unsigned long long>(case_seed), detail.c_str());
      std::string path = WriteRepro(gen, *rendered, options, out_dir, shrink);
      if (!path.empty()) {
        std::fprintf(stderr, "  repro: %s\n", path.c_str());
      }
      return 1;
    }
    ++ran;
    if (ran % 25 == 0) {
      std::printf("rp4fuzz: %llu cases clean (%.1fs)\n",
                  static_cast<unsigned long long>(ran), elapsed());
      std::fflush(stdout);
    }
  }
  std::printf("rp4fuzz: %llu cases clean in %.1fs (seeds %llu..%llu)\n",
              static_cast<unsigned long long>(ran), elapsed(),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed + (ran ? ran - 1 : 0)));
  return 0;
}

}  // namespace
}  // namespace ipsa::tools

int main(int argc, char** argv) { return ipsa::tools::Main(argc, argv); }
