// Supplementary: software-switch forwarding rate, pbm (bmv2 stand-in) vs
// ipbm, on the base design and each use case. Uses google-benchmark for
// stable measurement. This complements Table 1 (which times the *control*
// plane); here we measure the data plane of the two behavioral models.
//
// Variants per device:
//   * Forwarding:  one packet at a time through Process() (the default
//                  mode: compiled stages in the pipeline plan).
//   * Batch:       ProcessBatch() over 256 packets on one port.
//   * Drain/N:     RunToCompletion(N) draining all RX queues with N worker
//                  threads (N = 1, 2, 4, 8). Scaling needs a multi-core
//                  host; register-touching designs serialize to one worker.
//
// `bench_softswitch --smoke` is the CI gate that the compiled stages are in
// use and pay for themselves: on the base design of each device it times
// the batched path with the interpreter (kInterpret) and with the compiled
// stages (kSpecialize) in alternating rounds after a discarded warm-up, and
// exits nonzero unless the interpreter's median ns/pkt is at least 1.5x the
// compiled median and no program fell back to the interpreter
// (DeviceStats::interpreted_stages == 0). Like bench_tables, the gate
// refuses to run on a Debug build.
//
// Besides the console table, results are written to BENCH_softswitch.json
// (google-benchmark's JSON schema) for the evaluation scripts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "arch/pipeline_plan.h"
#include "bench/common.h"

namespace ipsa::bench {
namespace {

constexpr int kBatchSize = 256;

template <typename Setup>
std::vector<net::Packet> MakePackets(UseCase uc) {
  net::Workload workload(WorkloadFor(uc));
  std::vector<net::Packet> packets;
  packets.reserve(kBatchSize);
  for (int i = 0; i < kBatchSize; ++i) packets.push_back(workload.NextPacket());
  return packets;
}

template <typename Setup>
void RunPackets(benchmark::State& state, Setup& setup, UseCase uc) {
  std::vector<net::Packet> packets = MakePackets<Setup>(uc);
  size_t i = 0;
  for (auto _ : state) {
    net::Packet p = packets[i % packets.size()];
    auto result = setup.device->Process(p, 1);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->egress_port);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

template <typename Setup>
void RunBatch(benchmark::State& state, Setup& setup, UseCase uc) {
  std::vector<net::Packet> packets = MakePackets<Setup>(uc);
  std::vector<net::Packet> scratch;
  int64_t items = 0;
  for (auto _ : state) {
    state.PauseTiming();
    scratch = packets;  // processing edits headers in place
    state.ResumeTiming();
    auto result = setup.device->ProcessBatch(std::span(scratch), 1);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->size());
    items += static_cast<int64_t>(scratch.size());
  }
  state.SetItemsProcessed(items);
}

template <typename Setup>
void RunDrain(benchmark::State& state, Setup& setup, UseCase uc,
              uint32_t workers) {
  std::vector<net::Packet> packets = MakePackets<Setup>(uc);
  net::PortSet& ports = setup.device->ports();
  const uint32_t port_count = ports.count();
  int64_t items = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < kBatchSize; ++i) {
      ports.port(static_cast<uint32_t>(i) % port_count)
          .rx()
          .Push(packets[static_cast<size_t>(i)]);
    }
    state.ResumeTiming();
    auto result = setup.device->RunToCompletion(workers);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    items += static_cast<int64_t>(*result);
    state.PauseTiming();
    for (uint32_t p = 0; p < port_count; ++p) {
      while (ports.port(p).tx().Pop()) {
      }
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(items);
}

void BM_PbmForwarding(benchmark::State& state) {
  UseCase uc = static_cast<UseCase>(state.range(0));
  auto setup = MakePisaSetup(uc);
  if (!setup.ok()) {
    state.SkipWithError(setup.status().ToString().c_str());
    return;
  }
  state.SetLabel(UseCaseName(uc));
  RunPackets(state, *setup, uc);
}

void BM_IpbmForwarding(benchmark::State& state) {
  UseCase uc = static_cast<UseCase>(state.range(0));
  auto setup = MakeRp4Setup(uc);
  if (!setup.ok()) {
    state.SkipWithError(setup.status().ToString().c_str());
    return;
  }
  state.SetLabel(UseCaseName(uc));
  RunPackets(state, *setup, uc);
}

void BM_PbmBatch(benchmark::State& state) {
  UseCase uc = static_cast<UseCase>(state.range(0));
  auto setup = MakePisaSetup(uc);
  if (!setup.ok()) {
    state.SkipWithError(setup.status().ToString().c_str());
    return;
  }
  state.SetLabel(UseCaseName(uc));
  RunBatch(state, *setup, uc);
}

void BM_IpbmBatch(benchmark::State& state) {
  UseCase uc = static_cast<UseCase>(state.range(0));
  auto setup = MakeRp4Setup(uc);
  if (!setup.ok()) {
    state.SkipWithError(setup.status().ToString().c_str());
    return;
  }
  state.SetLabel(UseCaseName(uc));
  RunBatch(state, *setup, uc);
}

void BM_PbmDrain(benchmark::State& state) {
  UseCase uc = static_cast<UseCase>(state.range(0));
  uint32_t workers = static_cast<uint32_t>(state.range(1));
  auto setup = MakePisaSetup(uc);
  if (!setup.ok()) {
    state.SkipWithError(setup.status().ToString().c_str());
    return;
  }
  state.SetLabel(std::string(UseCaseName(uc)) + " workers=" +
                 std::to_string(workers));
  RunDrain(state, *setup, uc, workers);
}

void BM_IpbmDrain(benchmark::State& state) {
  UseCase uc = static_cast<UseCase>(state.range(0));
  uint32_t workers = static_cast<uint32_t>(state.range(1));
  auto setup = MakeRp4Setup(uc);
  if (!setup.ok()) {
    state.SkipWithError(setup.status().ToString().c_str());
    return;
  }
  state.SetLabel(std::string(UseCaseName(uc)) + " workers=" +
                 std::to_string(workers));
  RunDrain(state, *setup, uc, workers);
}

void UseCaseArgs(benchmark::internal::Benchmark* b) {
  b->Arg(static_cast<int>(UseCase::kBase))
      ->Arg(static_cast<int>(UseCase::kEcmp))
      ->Arg(static_cast<int>(UseCase::kSrv6))
      ->Arg(static_cast<int>(UseCase::kProbe));
}

void DrainArgs(benchmark::internal::Benchmark* b) {
  for (int uc : {static_cast<int>(UseCase::kBase),
                 static_cast<int>(UseCase::kSrv6)}) {
    for (int workers : {1, 2, 4, 8}) b->Args({uc, workers});
  }
}

BENCHMARK(BM_PbmForwarding)->Apply(UseCaseArgs);
BENCHMARK(BM_IpbmForwarding)->Apply(UseCaseArgs);
BENCHMARK(BM_PbmBatch)->Apply(UseCaseArgs);
BENCHMARK(BM_IpbmBatch)->Apply(UseCaseArgs);
// Wall-clock time: the workers run off the main thread, so CPU time of the
// calling thread would under-count multi-worker runs.
BENCHMARK(BM_PbmDrain)->Apply(DrainArgs)->UseRealTime();
BENCHMARK(BM_IpbmDrain)->Apply(DrainArgs)->UseRealTime();

// ---------------------------------------------------------------------------
// --smoke: compiled-stages-vs-interpreter gate (no google-benchmark).
// ---------------------------------------------------------------------------

struct SmokeResult {
  double interp_ns = 0;  // median ns/pkt, interpreter rounds
  double spec_ns = 0;    // median ns/pkt, compiled rounds
  uint64_t interpreted_stages = 0;  // most seen after a compiled rebuild
};

// Times ProcessBatch over the base design's packets in alternating
// interpreter and compiled rounds. Each round flips the mode (a config
// change) and runs one untimed batch that absorbs the rebuild; the first
// round of each mode is a discarded warm-up.
template <typename Setup>
Result<SmokeResult> SmokeRounds(Setup& setup) {
  constexpr int kRounds = 7;  // timed rounds per mode, after the warm-up
  constexpr int kIters = 40;
  std::vector<net::Packet> packets = MakePackets<Setup>(UseCase::kBase);
  std::vector<net::Packet> scratch;
  std::vector<double> interp;
  std::vector<double> spec;
  SmokeResult out;
  for (int r = 0; r <= kRounds; ++r) {
    for (arch::ExecMode mode :
         {arch::ExecMode::kInterpret, arch::ExecMode::kSpecialize}) {
      setup.device->SetExecMode(mode);
      scratch = packets;
      IPSA_RETURN_IF_ERROR(
          setup.device->ProcessBatch(std::span(scratch), 1).status());
      if (mode == arch::ExecMode::kSpecialize) {
        out.interpreted_stages = std::max(
            out.interpreted_stages, setup.device->stats().interpreted_stages);
      }
      double ns = 0;
      int64_t pkts = 0;
      for (int it = 0; it < kIters; ++it) {
        scratch = packets;  // processing edits headers in place
        auto t0 = std::chrono::steady_clock::now();
        auto result = setup.device->ProcessBatch(std::span(scratch), 1);
        auto t1 = std::chrono::steady_clock::now();
        IPSA_RETURN_IF_ERROR(result.status());
        ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
        pkts += static_cast<int64_t>(scratch.size());
      }
      if (r == 0) continue;  // warm-up
      (mode == arch::ExecMode::kInterpret ? interp : spec)
          .push_back(ns / static_cast<double>(pkts));
    }
  }
  std::sort(interp.begin(), interp.end());
  std::sort(spec.begin(), spec.end());
  out.interp_ns = interp[kRounds / 2];
  out.spec_ns = spec[kRounds / 2];
  return out;
}

template <typename Setup>
bool SmokeGate(const char* device, Result<Setup> setup) {
  constexpr double kMinSpeedup = 1.5;
  if (!setup.ok()) {
    std::fprintf(stderr, "FAIL: %s setup: %s\n", device,
                 setup.status().ToString().c_str());
    return false;
  }
  auto rounds = SmokeRounds(*setup);
  if (!rounds.ok()) {
    std::fprintf(stderr, "FAIL: %s: %s\n", device,
                 rounds.status().ToString().c_str());
    return false;
  }
  double speedup = rounds->interp_ns / rounds->spec_ns;
  std::printf(
      "%-5s batch(base): interpreter %7.1f ns/pkt  compiled %7.1f ns/pkt "
      "(%6.2f Mpps)  speedup %.2fx  interpreted stages %llu\n",
      device, rounds->interp_ns, rounds->spec_ns, 1e3 / rounds->spec_ns,
      speedup, static_cast<unsigned long long>(rounds->interpreted_stages));
  bool ok = true;
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "FAIL: %s compiled stages are only %.2fx faster than the "
                 "interpreter (need %.1fx)\n",
                 device, speedup, kMinSpeedup);
    ok = false;
  }
  if (rounds->interpreted_stages != 0) {
    std::fprintf(stderr,
                 "FAIL: %s ran %llu program(s) on the interpreter fallback\n",
                 device,
                 static_cast<unsigned long long>(rounds->interpreted_stages));
    ok = false;
  }
  return ok;
}

int SmokeMain() {
#ifndef NDEBUG
  std::fprintf(stderr, "--smoke refuses to gate on a Debug build.\n");
  return 1;
#else
  bool ok = SmokeGate("pbm", MakePisaSetup(UseCase::kBase));
  ok = SmokeGate("ipbm", MakeRp4Setup(UseCase::kBase)) && ok;
  std::printf("smoke gate: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
#endif
}

}  // namespace
}  // namespace ipsa::bench

// Custom main: besides the console table, always dump the JSON report to
// BENCH_softswitch.json (overridable with an explicit --benchmark_out=).
// `--smoke` short-circuits into the CI gate before google-benchmark sees
// the command line.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return ipsa::bench::SmokeMain();
    }
  }
#ifndef NDEBUG
  fprintf(stderr,
          "=====================================================\n"
          "WARNING: bench_softswitch was built without NDEBUG (a\n"
          "Debug build). Do NOT commit or compare these numbers;\n"
          "configure with -DCMAKE_BUILD_TYPE=Release.\n"
          "=====================================================\n");
#endif
  // The JSON context's "library_build_type" describes the *benchmark
  // library*, not this tree; record our own build type so a committed
  // report proves it came from a Release build.
#ifdef NDEBUG
  benchmark::AddCustomContext("ipsa_build_type", "release");
#else
  benchmark::AddCustomContext("ipsa_build_type", "debug");
#endif
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out")) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_softswitch.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
