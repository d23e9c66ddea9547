// perfbench — the repository benchmark binary.
//
//   perfbench --workload fwd|insitu|switchd --seed N --seconds S --trace 0|1
//
// Every run measures all three scenarios (fwd, insitu, switchd) in short
// alternating slices, so a phase of the host hits every metric alike and
// every end-to-end metric comes out of every run; the workload picks which
// scenario gets half of the slices (the other two get a quarter each).
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds, prints the per-layer ledger, the share of each
// end-to-end figure the layers explain, and the tracing overhead, and writes
// the spans to .bench_build/spans/<workload>-<seed>.tsv under the working
// directory. The last stdout line is one JSON object: correct, attempted,
// failed, metrics.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "scenario.h"

// --- global allocation counter (fwd.allocs_per_pkt) -------------------------

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
void SetAllocCounting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::vector<ipsa::net::Packet> EcmpTraffic(uint64_t seed, size_t count) {
  ipsa::net::WorkloadConfig cfg =
      ipsa::bench::WorkloadFor(ipsa::bench::UseCase::kEcmp);
  cfg.seed = seed;
  cfg.payload_size = 18;  // minimum Ethernet frame for IPv4/UDP
  ipsa::net::Workload wl(cfg);
  std::vector<ipsa::net::Packet> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(wl.NextPacket());
  return out;
}

namespace {

// Timed set-ups per run; setup_s is their median. One more, untimed, runs
// first: it starts on a cold heap and runs slower than every later one.
constexpr int kSetups = 21;
constexpr int64_t kSliceNs = 50'000'000;  // one scenario slice
constexpr int64_t kProbeNs = 5'000'000;   // host-speed probe after each slice

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  if (argc % 2 == 0) return false;  // every flag takes one value
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else {
      return false;
    }
  }
  return (a.workload == "fwd" || a.workload == "insitu" ||
          a.workload == "switchd") &&
         a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

std::string ReadFirstLine(const char* path, const char* prefix) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

double PeakRssMb() {
  std::string line = ReadFirstLine("/proc/self/status", "VmHWM:");
  return line.empty() ? 0 : std::strtod(line.c_str() + 6, nullptr) / 1024.0;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// nproc, W, build type, CPU model and load average, as one JSON line.
void PrintHostContext(const Args& args, unsigned nproc, uint32_t workers) {
#ifdef NDEBUG
  const char* build = "release";
#else
  const char* build = "debug";
  std::fprintf(stderr,
               "=====================================================\n"
               "WARNING: perfbench was built without NDEBUG (a Debug\n"
               "build). Do NOT compare these numbers; configure with\n"
               "-DCMAKE_BUILD_TYPE=Release.\n"
               "=====================================================\n");
#endif
  std::string cpu = ReadFirstLine("/proc/cpuinfo", "model name");
  if (auto pos = cpu.find(": "); pos != std::string::npos) {
    cpu = cpu.substr(pos + 2);
  }
  std::string load;
  std::ifstream f("/proc/loadavg");
  std::getline(f, load);
  std::printf(
      "host: {\"nproc\": %u, \"workers\": %u, \"build\": \"%s\", "
      "\"cpu\": \"%s\", \"loadavg\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %s}\n",
      nproc, workers, build, JsonEscape(cpu).c_str(),
      JsonEscape(load).c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), Num(args.seconds).c_str());
}

// fwd, insitu, switchd.
using Scenarios = std::vector<std::unique_ptr<Scenario>>;

// Builds the three scenarios and sets up the devices and the daemon under
// test: the part of a set-up that setup_s times.
ipsa::Result<Scenarios> SetUpAll(const Inputs& in) {
  Scenarios s;
  s.push_back(MakeFwd());
  s.push_back(MakeInsitu());
  s.push_back(MakeSwitchd());
  for (auto& sc : s) {
    ipsa::Status st = sc->Setup(in);
    if (!st.ok()) {
      return ipsa::InternalError(std::string(sc->name()) + " set-up: " +
                                 st.ToString());
    }
  }
  return s;
}

// Runs the interleaved slices for `seconds`. A round is [own, other, own,
// other']: the workload's own scenario gets half of the slices. In the
// traced run, rounds alternate untraced and traced.
void RunSlices(Scenarios& set, const Args& args, Tracer& tracer,
               HostProbe& probe) {
  size_t own = 0;
  for (size_t i = 0; i < set.size(); ++i) {
    if (args.workload == set[i]->name()) own = i;
  }
  std::vector<size_t> round;
  for (size_t i = 0; i < set.size(); ++i) {
    if (i == own) continue;
    round.push_back(own);
    round.push_back(i);
  }
  // Each untraced slice is scaled by the median of the last three probe
  // bursts: one burst that was preempted does not move it, and a phase of
  // the host lasts far longer than three slices. Traced slices stay raw,
  // like the spans they are compared with.
  std::vector<double> recent = {probe.Run(kProbeNs), probe.Run(kProbeNs),
                                probe.Run(kProbeNs)};
  const int64_t end = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (uint64_t rounds = 0, n = 0; NowNs() < end; ++rounds) {
    const bool traced = args.trace == 1 && (rounds % 2 == 1);
    for (size_t idx : round) {
      const double speed = traced ? 1.0 : Median(recent);
      set[idx]->RunSlice(kSliceNs, speed, traced ? &tracer : nullptr);
      recent[n++ % recent.size()] = probe.Run(kProbeNs);
    }
  }
}

// Prints the per-layer ledger of the traced run and returns its metrics.
MetricMap PrintLedger(const Scenarios& set, const Tracer& tracer,
                      const MetricMap& e2e, const MetricMap& e2e_traced) {
  MetricMap out;
  std::vector<LedgerLine> lines;
  std::vector<Explained> explained;
  for (const auto& sc : set) sc->ReportLayers(tracer, lines, explained);
  auto self = SelfTimeNs(tracer.spans());
  std::printf("ledger: self time per span (ms total, calls)\n");
  for (const auto& [name, t] : TotalTimeNs(tracer.spans())) {
    std::printf("  span %-28s self %10.3f ms  total %10.3f ms  calls %llu\n",
                name.c_str(), self[name] / 1e6, t.total_ns / 1e6,
                static_cast<unsigned long long>(t.calls));
  }
  std::printf("ledger: per-layer metrics\n");
  for (const auto& l : lines) {
    std::printf("  layer %-34s %14.4f %-6s moves %s\n", l.metric.c_str(),
                l.value, l.unit.c_str(), l.moves.c_str());
    out[l.metric] = {l.value, l.unit};
  }
  std::printf("ledger: share of end-to-end explained by the traced layers\n");
  for (const auto& e : explained) {
    std::printf("  explained %-44s %6.1f%%  (layers %.1f ns of %.1f ns)\n",
                e.metric.c_str(),
                e.e2e_ns > 0 ? 100.0 * e.layers_ns / e.e2e_ns : 0.0,
                e.layers_ns, e.e2e_ns);
  }
  std::printf("ledger: tracing overhead (traced vs untraced rounds)\n");
  for (const auto& [name, m] : e2e_traced) {
    const double base = e2e.count(name) ? e2e.at(name).value : 0;
    std::printf("  overhead %-14s untraced %14.4f traced %14.4f  (%+.1f%%)\n",
                name.c_str(), base, m.value,
                base > 0 ? 100.0 * (m.value / base - 1) : 0.0);
  }
  return out;
}

void WriteSpans(const Tracer& tracer, const Args& args) {
  const std::filesystem::path dir = ".bench_build/spans";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream f(dir / (args.workload + "-" + std::to_string(args.seed) +
                         ".tsv"));
  f << "name\tparent\tid\tstart_ns\tend_ns\n";
  for (const Span& s : tracer.spans()) {
    f << s.name << '\t' << s.parent << '\t' << s.id << '\t' << s.start_ns
      << '\t' << s.end_ns << '\n';
  }
}

void PrintResult(bool correct, const Outcome& total, const MetricMap& out) {
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << total.attempted
     << ", \"failed\": " << total.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out) {
    js << (first ? "" : ", ") << '"' << name
       << "\": {\"value\": " << Num(m.value) << ", \"unit\": \"" << m.unit
       << "\"}";
    first = false;
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fwd|insitu|switchd --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  Inputs in;
  in.seed = args.seed;
  in.workers = std::min(4u, nproc);
  PrintHostContext(args, nproc, in.workers);

  // Set up several times; the last set is prepared and measured. Each
  // set-up is scaled by the host speed probed right around it.
  std::vector<double> setup_s, setup_raw_s;
  Scenarios set;
  for (int i = 0; i <= kSetups; ++i) {
    set.clear();  // the previous set's daemon stops here
    HostProbe around;
    around.Run(kProbeNs);
    const int64_t t0 = NowNs();
    auto s = SetUpAll(in);
    const double raw = static_cast<double>(NowNs() - t0) / 1e9;
    around.Run(kProbeNs);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   s.status().ToString().c_str());
      return 1;
    }
    if (i > 0) {
      setup_raw_s.push_back(raw);
      setup_s.push_back(raw * around.speed());
    }
    set = std::move(*s);
  }
  std::printf("setups (s, scaled):");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf("\n");
  for (auto& sc : set) {
    ipsa::Status st = sc->Prepare(in);
    if (!st.ok()) {
      std::fprintf(stderr, "%s preparation failed: %s\n", sc->name(),
                   st.ToString().c_str());
      return 1;
    }
  }

  Tracer tracer;
  HostProbe probe;
  RunSlices(set, args, tracer, probe);
  for (auto& sc : set) sc->Finish();

  Outcome total;
  for (auto& sc : set) {
    total.attempted += sc->outcome.attempted;
    total.failed += sc->outcome.failed;
    for (const auto& f : sc->outcome.first_failures) {
      std::printf("FAILED: %s\n", f.c_str());
    }
  }
  bool correct = total.failed == 0;

  MetricMap e2e, e2e_traced;
  for (auto& sc : set) {
    sc->Report(false, e2e);
    if (args.trace == 1) sc->Report(true, e2e_traced);
  }
  // The untraced figures are already at the nominal host speed (scaled
  // slice by slice); "raw" undoes the run's mean speed for reference, and
  // the traced figures get the mean speed for the overhead comparison.
  const double speed = probe.speed();
  std::printf("host_speed %.4f (probe %.4g iter/s, nominal %.4g)\n", speed,
              speed * HostProbe::kNominalRate, HostProbe::kNominalRate);
  MetricMap raw = e2e;
  for (auto& [name, m] : raw) {
    m.value = ScaleToNominal(m.value, m.unit, 1.0 / speed);
  }
  for (auto& [name, m] : e2e_traced) {
    m.value = ScaleToNominal(m.value, m.unit, speed);
  }
  raw["setup_s"] = {Median(setup_raw_s), "s"};
  e2e["setup_s"] = {Median(setup_s), "s"};
  raw["rss_mb"] = e2e["rss_mb"] = {PeakRssMb(), "MB"};

  // A named percentile the sample cannot support would not repeat from run
  // to run: the run is then not a valid measurement.
  std::vector<PercentileUse> percentiles;
  std::vector<std::string> notes;
  for (auto& sc : set) sc->Describe(percentiles, notes);
  for (const auto& u : percentiles) {
    const double supported = SupportedPercentile(u.samples);
    std::printf("samples %-14s %8zu  (highest supported percentile p%s)\n",
                u.metric.c_str(), u.samples, Num(supported).c_str());
    if (args.trace == 0 && supported < u.p) {
      std::printf("FAILED: %s needs more samples than the run produced\n",
                  u.metric.c_str());
      correct = false;
    }
  }
  for (const auto& n : notes) {
    std::printf(n.rfind("info ", 0) == 0 ? "%s\n" : "note: %s\n", n.c_str());
  }
  for (const auto& [name, m] : e2e) {
    std::printf("metric %-14s %14.4f %-6s (raw %.4f)\n", name.c_str(),
                m.value, m.unit.c_str(), raw[name].value);
  }

  MetricMap out = e2e;
  if (args.trace == 1) {
    out = PrintLedger(set, tracer, e2e, e2e_traced);
    WriteSpans(tracer, args);
  }
  PrintResult(correct, total, out);
  return 0;
}
