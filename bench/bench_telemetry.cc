// Telemetry overhead benchmark: the batch fast path with the collector
// disabled vs enabled (counters + histograms) vs enabled with 1-in-64
// packet tracing, on both devices.
//
// Hand-rolled timing instead of google-benchmark because the interesting
// number is a *ratio* measured on the same device object (toggling the
// collector between rounds keeps the compiled programs and caches
// identical), and because --smoke turns that ratio into an exit code for
// CI: nonzero when the enabled overhead exceeds 10%.
//
// Results go to BENCH_telemetry.json (see docs/performance.md).
//
//   $ bench_telemetry            # full run, ~200 iterations per round
//   $ bench_telemetry --smoke    # quick CI gate
#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/report_context.h"
#include "telemetry/collector.h"
#include "util/json.h"

namespace ipsa::bench {
namespace {

constexpr int kBatchSize = 256;

std::vector<net::Packet> MakePackets(UseCase uc) {
  net::Workload workload(WorkloadFor(uc));
  std::vector<net::Packet> packets;
  packets.reserve(kBatchSize);
  for (int i = 0; i < kBatchSize; ++i) packets.push_back(workload.NextPacket());
  return packets;
}

// Nanoseconds per packet for one round of `iters` batches through
// ProcessBatch.
template <typename Device>
Result<double> TimeRound(Device& dev, const std::vector<net::Packet>& packets,
                         int iters) {
  using Clock = std::chrono::steady_clock;
  std::vector<net::Packet> scratch;
  uint64_t total_ns = 0;
  for (int i = 0; i < iters; ++i) {
    scratch.assign(packets.begin(), packets.end());
    Clock::time_point t0 = Clock::now();
    auto result = dev.ProcessBatch(std::span(scratch), 1);
    Clock::time_point t1 = Clock::now();
    IPSA_RETURN_IF_ERROR(result.status());
    total_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  }
  return static_cast<double>(total_ns) /
         (static_cast<double>(iters) * kBatchSize);
}

struct CaseResult {
  std::string device;
  std::string use_case;
  double disabled_ns = 0;
  double enabled_ns = 0;
  double traced_ns = 0;  // counters + 1-in-64 sampled tracing
  double overhead_pct = 0;
  double traced_overhead_pct = 0;
};

// Rounds interleave the three configurations (off, on, on+trace) so slow
// drift on a shared machine biases the ratio as little as possible; the
// per-configuration minimum across rounds is the noise-robust estimate.
template <typename Device>
Result<CaseResult> MeasureCase(const char* device_name, Device& dev,
                               UseCase uc, int iters, int rounds) {
  std::vector<net::Packet> packets = MakePackets(uc);
  CaseResult out;
  out.device = device_name;
  out.use_case = std::string(UseCaseName(uc));

  telemetry::TelemetryConfig off;
  telemetry::TelemetryConfig on;
  on.enabled = true;
  telemetry::TelemetryConfig traced = on;
  traced.trace.sample_every = 64;

  double best_off = 0, best_on = 0, best_traced = 0;
  for (int r = 0; r < rounds + 1; ++r) {  // round 0 is warmup
    dev.ConfigureTelemetry(off);
    IPSA_ASSIGN_OR_RETURN(double t_off, TimeRound(dev, packets, iters));
    dev.ConfigureTelemetry(on);
    IPSA_ASSIGN_OR_RETURN(double t_on, TimeRound(dev, packets, iters));
    dev.ConfigureTelemetry(traced);
    IPSA_ASSIGN_OR_RETURN(double t_traced, TimeRound(dev, packets, iters));
    if (r == 0) continue;
    if (best_off == 0 || t_off < best_off) best_off = t_off;
    if (best_on == 0 || t_on < best_on) best_on = t_on;
    if (best_traced == 0 || t_traced < best_traced) best_traced = t_traced;
  }
  out.disabled_ns = best_off;
  out.enabled_ns = best_on;
  out.traced_ns = best_traced;
  out.overhead_pct = (out.enabled_ns / out.disabled_ns - 1.0) * 100.0;
  out.traced_overhead_pct = (out.traced_ns / out.disabled_ns - 1.0) * 100.0;
  return out;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_telemetry.json";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else {
      std::fprintf(stderr,
                   "usage: bench_telemetry [--smoke] [--out=FILE.json]\n");
      return 2;
    }
  }
  const int iters = smoke ? 40 : 120;
  const int rounds = smoke ? 4 : 12;

  std::vector<CaseResult> results;
  for (UseCase uc : {UseCase::kBase, UseCase::kEcmp}) {
    auto pisa = MakePisaSetup(uc);
    if (!pisa.ok()) {
      std::fprintf(stderr, "pisa setup: %s\n",
                   pisa.status().ToString().c_str());
      return 1;
    }
    auto pbm = MeasureCase("pbm", *pisa->device, uc, iters, rounds);
    if (!pbm.ok()) {
      std::fprintf(stderr, "pbm: %s\n", pbm.status().ToString().c_str());
      return 1;
    }
    results.push_back(std::move(*pbm));

    auto rp4 = MakeRp4Setup(uc);
    if (!rp4.ok()) {
      std::fprintf(stderr, "ipbm setup: %s\n",
                   rp4.status().ToString().c_str());
      return 1;
    }
    auto ipbm = MeasureCase("ipbm", *rp4->device, uc, iters, rounds);
    if (!ipbm.ok()) {
      std::fprintf(stderr, "ipbm: %s\n", ipbm.status().ToString().c_str());
      return 1;
    }
    results.push_back(std::move(*ipbm));
  }

  std::printf("%-6s %-6s %12s %12s %12s %9s %9s\n", "device", "case",
              "off ns/pkt", "on ns/pkt", "trace ns/pkt", "on ovh%",
              "trace ovh%");
  double max_overhead = 0;
  util::Json rows = util::Json::Array();
  for (const CaseResult& r : results) {
    std::printf("%-6s %-6s %12.1f %12.1f %12.1f %8.2f%% %8.2f%%\n",
                r.device.c_str(), r.use_case.c_str(), r.disabled_ns,
                r.enabled_ns, r.traced_ns, r.overhead_pct,
                r.traced_overhead_pct);
    if (r.overhead_pct > max_overhead) max_overhead = r.overhead_pct;
    util::Json row = util::Json::Object();
    row["device"] = r.device;
    row["use_case"] = r.use_case;
    row["disabled_ns_per_packet"] = r.disabled_ns;
    row["enabled_ns_per_packet"] = r.enabled_ns;
    row["traced_ns_per_packet"] = r.traced_ns;
    row["enabled_overhead_pct"] = r.overhead_pct;
    row["traced_overhead_pct"] = r.traced_overhead_pct;
    rows.push_back(std::move(row));
  }

  util::Json report = util::Json::Object();
  report["benchmark"] = "telemetry_overhead";
  report["mode"] = smoke ? "smoke" : "full";
  AddReportContext(report);
  report["batch_size"] = kBatchSize;
  report["iterations_per_round"] = iters;
  report["rounds"] = rounds;
  report["results"] = std::move(rows);
  report["max_enabled_overhead_pct"] = max_overhead;
  std::ofstream out(out_path, std::ios::trunc);
  out << report.Dump(2) << "\n";
  std::printf("report written to %s\n", out_path.c_str());

  if (smoke && max_overhead > 10.0) {
    std::fprintf(stderr,
                 "FAIL: telemetry overhead %.2f%% exceeds the 10%% gate\n",
                 max_overhead);
    return 1;
  }
  std::printf("max enabled overhead: %.2f%% (target <5%%, gate 10%%)\n",
              max_overhead);
  return 0;
}

}  // namespace
}  // namespace ipsa::bench

int main(int argc, char** argv) { return ipsa::bench::Main(argc, argv); }
