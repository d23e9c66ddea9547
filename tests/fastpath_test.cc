// Fast-path regression tests.
//
// The compiled stage path (arch/compiled_stage.h), the batched entry points
// and the multi-worker executor all promise bit-identical results to the
// straightforward serial interpreter. These tests pin that promise:
//
//   * ReadWireBits/WriteWireBits (chunked) and ReadWire64/WriteWire64 against
//     a bit-by-bit reference on randomized offsets/widths.
//   * ProcessResult equality between per-packet Process, ProcessBatch and
//     multi-worker RunToCompletion on all four use-case workloads, for both
//     devices.
//   * ProcessResult equality across a mid-run template rewrite (which drains
//     the pipeline and forces a full recompile of the TSP fast path).
#include <gtest/gtest.h>

#include <random>
#include <span>
#include <type_traits>
#include <vector>

#include "arch/context.h"
#include "arch/stage.h"
#include "bench/common.h"
#include "ipsa/ipbm.h"
#include "net/workload.h"
#include "telemetry/collector.h"
#include "telemetry/export.h"

namespace ipsa {
namespace {

// The per-packet values the compiled walk copies and returns by value hold
// no owning strings: a PHV instance is ids, offsets and a definition
// pointer; stage stats carry names only as views.
static_assert(std::is_trivially_copyable_v<arch::HeaderInstance>);
static_assert(std::is_trivially_copyable_v<arch::StageRunStats>);

using bench::MakePisaSetup;
using bench::MakeRp4Setup;
using bench::UseCase;
using bench::UseCaseName;
using bench::WorkloadFor;

// ---------------------------------------------------------------------------
// Wire-bits fast path vs bit-by-bit reference
// ---------------------------------------------------------------------------

// Wire bit i of the field (MSB-first on the wire) maps to value bit
// width-1-i. This is the original one-bit-at-a-time implementation the
// chunked versions replaced.
mem::BitString RefReadWireBits(std::span<const uint8_t> bytes, size_t offset,
                               size_t width) {
  mem::BitString out(width);
  for (size_t i = 0; i < width; ++i) {
    size_t pos = offset + i;
    bool bit = (bytes[pos / 8] >> (7 - pos % 8)) & 1;
    out.SetBit(width - 1 - i, bit);
  }
  return out;
}

void RefWriteWireBits(std::span<uint8_t> bytes, size_t offset, size_t width,
                      const mem::BitString& value) {
  for (size_t i = 0; i < width; ++i) {
    size_t pos = offset + i;
    size_t vbit = width - 1 - i;
    bool bit = vbit < value.bit_width() && value.GetBit(vbit);
    uint8_t mask = static_cast<uint8_t>(1u << (7 - pos % 8));
    if (bit) {
      bytes[pos / 8] |= mask;
    } else {
      bytes[pos / 8] &= static_cast<uint8_t>(~mask);
    }
  }
}

TEST(WireBitsFastPath, RandomizedEquivalence) {
  std::mt19937_64 rng(20211110);
  std::vector<uint8_t> buf(64);
  for (int trial = 0; trial < 3000; ++trial) {
    for (uint8_t& b : buf) b = static_cast<uint8_t>(rng());
    size_t width = 1 + rng() % 128;
    size_t offset = rng() % (buf.size() * 8 - width);

    mem::BitString ref = RefReadWireBits(buf, offset, width);
    mem::BitString fast = arch::ReadWireBits(buf, offset, width);
    ASSERT_EQ(ref.ToHex(), fast.ToHex())
        << "read offset=" << offset << " width=" << width;
    if (width <= 64) {
      ASSERT_EQ(ref.ToUint64(), arch::ReadWire64(buf, offset, width))
          << "scalar read offset=" << offset << " width=" << width;
    }

    // Random value, sometimes narrower than the field (the bit-by-bit
    // semantics zero-fill the missing high bits).
    size_t vwidth = (trial % 3 == 0 && width > 1) ? width / 2 : width;
    mem::BitString value(vwidth);
    for (size_t i = 0; i < vwidth; ++i) value.SetBit(i, rng() & 1);

    std::vector<uint8_t> ref_buf = buf;
    std::vector<uint8_t> fast_buf = buf;
    RefWriteWireBits(ref_buf, offset, width, value);
    arch::WriteWireBits(fast_buf, offset, width, value);
    ASSERT_EQ(ref_buf, fast_buf)
        << "write offset=" << offset << " width=" << width
        << " vwidth=" << vwidth;
    if (width <= 64 && vwidth == width) {
      std::vector<uint8_t> scalar_buf = buf;
      arch::WriteWire64(scalar_buf, offset, width, value.ToUint64());
      ASSERT_EQ(ref_buf, scalar_buf)
          << "scalar write offset=" << offset << " width=" << width;
    }
  }
}

// ---------------------------------------------------------------------------
// Serial / batch / parallel determinism
// ---------------------------------------------------------------------------

constexpr UseCase kAllUseCases[] = {UseCase::kBase, UseCase::kEcmp,
                                    UseCase::kSrv6, UseCase::kProbe};
constexpr int kPacketCount = 64;

std::vector<net::Packet> MakeWorkloadPackets(UseCase uc) {
  net::Workload workload(WorkloadFor(uc));
  std::vector<net::Packet> packets;
  packets.reserve(kPacketCount);
  for (int i = 0; i < kPacketCount; ++i) {
    packets.push_back(workload.NextPacket());
  }
  return packets;
}

void ExpectSameResult(const pisa::ProcessResult& a, const pisa::ProcessResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.dropped, b.dropped) << what;
  EXPECT_EQ(a.marked, b.marked) << what;
  EXPECT_EQ(a.egress_port, b.egress_port) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.headers_parsed, b.headers_parsed) << what;
  EXPECT_DOUBLE_EQ(a.pipeline_ii, b.pipeline_ii) << what;
}

// Process() one at a time on device A vs one ProcessBatch() on device B:
// identical results and identical final packet bytes.
template <typename MakeSetup>
void CheckSerialVsBatch(MakeSetup make, UseCase uc) {
  SCOPED_TRACE(UseCaseName(uc));
  net::Workload populate_workload(WorkloadFor(uc));
  auto serial = make(uc, &populate_workload);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  net::Workload populate_workload2(WorkloadFor(uc));
  auto batch = make(uc, &populate_workload2);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  std::vector<net::Packet> serial_pkts = MakeWorkloadPackets(uc);
  std::vector<net::Packet> batch_pkts = MakeWorkloadPackets(uc);

  std::vector<pisa::ProcessResult> serial_results;
  for (net::Packet& p : serial_pkts) {
    auto r = serial->device->Process(p, 1);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    serial_results.push_back(*r);
  }
  auto batch_results = batch->device->ProcessBatch(std::span(batch_pkts), 1);
  ASSERT_TRUE(batch_results.ok()) << batch_results.status().ToString();

  ASSERT_EQ(serial_results.size(), batch_results->size());
  for (size_t i = 0; i < serial_results.size(); ++i) {
    ExpectSameResult(serial_results[i], (*batch_results)[i],
                     "packet " + std::to_string(i));
    EXPECT_TRUE(serial_pkts[i] == batch_pkts[i])
        << "packet bytes diverged at " << i;
  }
}

// RunToCompletion(1) vs RunToCompletion(4) on identically-filled ports:
// identical TX queues and identical device counters.
template <typename MakeSetup>
void CheckSerialVsParallel(MakeSetup make, UseCase uc) {
  SCOPED_TRACE(UseCaseName(uc));
  net::Workload populate_workload(WorkloadFor(uc));
  auto serial = make(uc, &populate_workload);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  net::Workload populate_workload2(WorkloadFor(uc));
  auto parallel = make(uc, &populate_workload2);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  std::vector<net::Packet> packets = MakeWorkloadPackets(uc);
  uint32_t port_count = serial->device->ports().count();
  for (size_t i = 0; i < packets.size(); ++i) {
    uint32_t p = static_cast<uint32_t>(i) % port_count;
    serial->device->ports().port(p).rx().Push(packets[i]);
    parallel->device->ports().port(p).rx().Push(packets[i]);
  }

  auto n_serial = serial->device->RunToCompletion(1);
  ASSERT_TRUE(n_serial.ok()) << n_serial.status().ToString();
  auto n_parallel = parallel->device->RunToCompletion(4);
  ASSERT_TRUE(n_parallel.ok()) << n_parallel.status().ToString();
  EXPECT_EQ(*n_serial, *n_parallel);

  for (uint32_t p = 0; p < port_count; ++p) {
    auto& stx = serial->device->ports().port(p).tx();
    auto& ptx = parallel->device->ports().port(p).tx();
    ASSERT_EQ(stx.size(), ptx.size()) << "tx depth differs on port " << p;
    while (auto sp = stx.Pop()) {
      auto pp = ptx.Pop();
      ASSERT_TRUE(pp.has_value());
      EXPECT_TRUE(*sp == *pp) << "tx bytes differ on port " << p;
    }
  }

  const pisa::DeviceStats& ss = serial->device->stats();
  const pisa::DeviceStats& ps = parallel->device->stats();
  EXPECT_EQ(ss.packets_in, ps.packets_in);
  EXPECT_EQ(ss.packets_out, ps.packets_out);
  EXPECT_EQ(ss.packets_dropped, ps.packets_dropped);
  EXPECT_EQ(ss.packets_marked, ps.packets_marked);
  EXPECT_EQ(ss.total_cycles, ps.total_cycles);
}

TEST(FastPathDeterminism, IpbmSerialVsBatch) {
  for (UseCase uc : kAllUseCases) {
    CheckSerialVsBatch(
        [](UseCase u, const net::Workload* w) { return MakeRp4Setup(u, w); },
        uc);
  }
}

TEST(FastPathDeterminism, PbmSerialVsBatch) {
  for (UseCase uc : kAllUseCases) {
    CheckSerialVsBatch(
        [](UseCase u, const net::Workload* w) { return MakePisaSetup(u, w); },
        uc);
  }
}

TEST(FastPathDeterminism, IpbmSerialVsParallel) {
  for (UseCase uc : kAllUseCases) {
    CheckSerialVsParallel(
        [](UseCase u, const net::Workload* w) { return MakeRp4Setup(u, w); },
        uc);
  }
}

TEST(FastPathDeterminism, PbmSerialVsParallel) {
  for (UseCase uc : kAllUseCases) {
    CheckSerialVsParallel(
        [](UseCase u, const net::Workload* w) { return MakePisaSetup(u, w); },
        uc);
  }
}

// With telemetry enabled, a parallel drain accumulates into per-worker
// shards merged after join. The merged registry must equal the serial
// one exactly — same port histograms bucket-for-bucket, same per-stage
// hit counters — and forwarding must stay bit-identical.
template <typename MakeSetup>
void CheckTelemetryShardMerge(MakeSetup make, UseCase uc) {
  SCOPED_TRACE(UseCaseName(uc));
  net::Workload populate_workload(WorkloadFor(uc));
  auto serial = make(uc, &populate_workload);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  net::Workload populate_workload2(WorkloadFor(uc));
  auto parallel = make(uc, &populate_workload2);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  telemetry::TelemetryConfig config;
  config.enabled = true;
  serial->device->ConfigureTelemetry(config);
  parallel->device->ConfigureTelemetry(config);

  std::vector<net::Packet> packets = MakeWorkloadPackets(uc);
  uint32_t port_count = serial->device->ports().count();
  for (size_t i = 0; i < packets.size(); ++i) {
    uint32_t p = static_cast<uint32_t>(i) % port_count;
    serial->device->ports().port(p).rx().Push(packets[i]);
    parallel->device->ports().port(p).rx().Push(packets[i]);
  }

  ASSERT_TRUE(serial->device->RunToCompletion(1).ok());
  ASSERT_TRUE(parallel->device->RunToCompletion(4).ok());

  telemetry::MetricsShard* s = serial->device->telemetry().shard();
  telemetry::MetricsShard* p = parallel->device->telemetry().shard();
  ASSERT_NE(s, nullptr);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*s, *p) << "sharded merge diverged from serial accumulation";

  for (uint32_t port = 0; port < port_count; ++port) {
    auto& stx = serial->device->ports().port(port).tx();
    auto& ptx = parallel->device->ports().port(port).tx();
    ASSERT_EQ(stx.size(), ptx.size()) << "tx depth differs on port " << port;
    while (auto sp = stx.Pop()) {
      auto pp = ptx.Pop();
      ASSERT_TRUE(pp.has_value());
      EXPECT_TRUE(*sp == *pp) << "tx bytes differ on port " << port;
    }
  }
}

TEST(FastPathDeterminism, IpbmTelemetryShardMerge) {
  for (UseCase uc : kAllUseCases) {
    CheckTelemetryShardMerge(
        [](UseCase u, const net::Workload* w) { return MakeRp4Setup(u, w); },
        uc);
  }
}

TEST(FastPathDeterminism, PbmTelemetryShardMerge) {
  for (UseCase uc : kAllUseCases) {
    CheckTelemetryShardMerge(
        [](UseCase u, const net::Workload* w) { return MakePisaSetup(u, w); },
        uc);
  }
}

// Telemetry collection must not change what the device does to packets:
// same results, same bytes, whether the collector is on or off.
TEST(FastPathDeterminism, TelemetryOnOffBitIdentical) {
  for (UseCase uc : kAllUseCases) {
    SCOPED_TRACE(UseCaseName(uc));
    net::Workload populate_workload(WorkloadFor(uc));
    auto off = MakeRp4Setup(uc, &populate_workload);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    net::Workload populate_workload2(WorkloadFor(uc));
    auto on = MakeRp4Setup(uc, &populate_workload2);
    ASSERT_TRUE(on.ok()) << on.status().ToString();

    telemetry::TelemetryConfig config;
    config.enabled = true;
    config.trace.sample_every = 3;  // sampling active too
    on->device->ConfigureTelemetry(config);

    std::vector<net::Packet> off_pkts = MakeWorkloadPackets(uc);
    std::vector<net::Packet> on_pkts = MakeWorkloadPackets(uc);
    for (size_t i = 0; i < off_pkts.size(); ++i) {
      auto r_off = off->device->Process(off_pkts[i], 1);
      auto r_on = on->device->Process(on_pkts[i], 1);
      ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();
      ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();
      ExpectSameResult(*r_off, *r_on, "packet " + std::to_string(i));
      EXPECT_TRUE(off_pkts[i] == on_pkts[i])
          << "packet bytes diverged at " << i;
    }
    EXPECT_GT(on->device->telemetry().DrainTraces().size(), 0u);
  }
}

// A template rewrite mid-run (same content) drains the pipeline, bumps the
// config epoch and forces a full recompile; packet results must not change.
TEST(FastPathDeterminism, IpbmRecompileAcrossTemplateWrite) {
  for (UseCase uc : kAllUseCases) {
    SCOPED_TRACE(UseCaseName(uc));
    net::Workload populate_workload(WorkloadFor(uc));
    auto plain = MakeRp4Setup(uc, &populate_workload);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    net::Workload populate_workload2(WorkloadFor(uc));
    auto rewritten = MakeRp4Setup(uc, &populate_workload2);
    ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();

    std::vector<net::Packet> plain_pkts = MakeWorkloadPackets(uc);
    std::vector<net::Packet> rewr_pkts = MakeWorkloadPackets(uc);

    auto process_range = [](auto& setup, std::vector<net::Packet>& pkts,
                            size_t from, size_t to,
                            std::vector<pisa::ProcessResult>& out) {
      for (size_t i = from; i < to; ++i) {
        auto r = setup->device->Process(pkts[i], 1);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        out.push_back(*r);
      }
    };

    std::vector<pisa::ProcessResult> plain_results;
    std::vector<pisa::ProcessResult> rewr_results;
    size_t half = plain_pkts.size() / 2;
    process_range(plain, plain_pkts, 0, plain_pkts.size(), plain_results);
    process_range(rewritten, rewr_pkts, 0, half, rewr_results);

    // Rewrite every populated TSP's template with identical content.
    ipbm::IpbmSwitch& dev = *rewritten->device;
    for (uint32_t id = 0; id < dev.pipeline().tsp_count(); ++id) {
      const ipbm::Tsp& tsp = dev.pipeline().tsp(id);
      if (!tsp.HasTemplate()) continue;
      std::vector<arch::StageProgram> programs = tsp.programs();
      ASSERT_TRUE(dev.WriteTspTemplate(id, tsp.role(), std::move(programs)).ok());
    }

    process_range(rewritten, rewr_pkts, half, rewr_pkts.size(), rewr_results);

    ASSERT_EQ(plain_results.size(), rewr_results.size());
    for (size_t i = 0; i < plain_results.size(); ++i) {
      ExpectSameResult(plain_results[i], rewr_results[i],
                       "packet " + std::to_string(i));
      EXPECT_TRUE(plain_pkts[i] == rewr_pkts[i])
          << "packet bytes diverged at " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Execution-mode equivalence: interpreter / compiled walk / specialized plan
// ---------------------------------------------------------------------------

constexpr arch::ExecMode kAllModes[] = {arch::ExecMode::kInterpret,
                                        arch::ExecMode::kCompile,
                                        arch::ExecMode::kSpecialize};

const char* ModeName(arch::ExecMode m) {
  switch (m) {
    case arch::ExecMode::kInterpret: return "interpret";
    case arch::ExecMode::kCompile: return "compile";
    case arch::ExecMode::kSpecialize: return "specialize";
  }
  return "?";
}

// Three identically-configured devices, one per execution mode, fed the
// same workload: results, cycle ledgers and final packet bytes must be
// bit-identical (the specialized plan promises exactly the interpreter's
// semantics, dead-stage cycle folding included).
template <typename MakeSetup>
void CheckExecModeEquivalence(MakeSetup make, UseCase uc) {
  SCOPED_TRACE(UseCaseName(uc));
  std::vector<std::vector<pisa::ProcessResult>> results(3);
  std::vector<std::vector<net::Packet>> pkts;
  for (size_t m = 0; m < 3; ++m) {
    net::Workload populate_workload(WorkloadFor(uc));
    auto setup = make(uc, &populate_workload);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    setup->device->SetExecMode(kAllModes[m]);
    pkts.push_back(MakeWorkloadPackets(uc));
    for (net::Packet& p : pkts.back()) {
      auto r = setup->device->Process(p, 1);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      results[m].push_back(*r);
    }
  }
  for (size_t m = 1; m < 3; ++m) {
    ASSERT_EQ(results[0].size(), results[m].size());
    for (size_t i = 0; i < results[0].size(); ++i) {
      ExpectSameResult(results[0][i], results[m][i],
                       std::string(ModeName(kAllModes[m])) + " packet " +
                           std::to_string(i));
      EXPECT_TRUE(pkts[0][i] == pkts[m][i])
          << ModeName(kAllModes[m]) << " bytes diverged at " << i;
    }
  }
}

TEST(ExecModeEquivalence, Ipbm) {
  for (UseCase uc : kAllUseCases) {
    CheckExecModeEquivalence(
        [](UseCase u, const net::Workload* w) { return MakeRp4Setup(u, w); },
        uc);
  }
}

TEST(ExecModeEquivalence, Pbm) {
  for (UseCase uc : kAllUseCases) {
    CheckExecModeEquivalence(
        [](UseCase u, const net::Workload* w) { return MakePisaSetup(u, w); },
        uc);
  }
}

// Flipping the mode mid-stream (specialize -> interpret -> specialize) is a
// config mutation: the plan is dropped, packets run the generic walk, and
// the next specialize rebuilds the plan under the new epoch. Results must
// stay identical to a device that never left the specialized path.
TEST(ExecModeEquivalence, IpbmModeFlipMidStreamIsSeamless) {
  for (UseCase uc : kAllUseCases) {
    SCOPED_TRACE(UseCaseName(uc));
    net::Workload populate_workload(WorkloadFor(uc));
    auto steady = MakeRp4Setup(uc, &populate_workload);
    ASSERT_TRUE(steady.ok()) << steady.status().ToString();
    net::Workload populate_workload2(WorkloadFor(uc));
    auto flipped = MakeRp4Setup(uc, &populate_workload2);
    ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();

    std::vector<net::Packet> steady_pkts = MakeWorkloadPackets(uc);
    std::vector<net::Packet> flip_pkts = MakeWorkloadPackets(uc);

    std::vector<pisa::ProcessResult> steady_results;
    std::vector<pisa::ProcessResult> flip_results;
    auto process_range = [](auto& setup, std::vector<net::Packet>& pkts,
                            size_t from, size_t to,
                            std::vector<pisa::ProcessResult>& out) {
      for (size_t i = from; i < to; ++i) {
        auto r = setup->device->Process(pkts[i], 1);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        out.push_back(*r);
      }
    };

    process_range(steady, steady_pkts, 0, steady_pkts.size(), steady_results);
    size_t third = flip_pkts.size() / 3;
    process_range(flipped, flip_pkts, 0, third, flip_results);
    flipped->device->SetExecMode(arch::ExecMode::kInterpret);
    process_range(flipped, flip_pkts, third, 2 * third, flip_results);
    flipped->device->SetExecMode(arch::ExecMode::kSpecialize);
    process_range(flipped, flip_pkts, 2 * third, flip_pkts.size(),
                  flip_results);

    ASSERT_EQ(steady_results.size(), flip_results.size());
    for (size_t i = 0; i < steady_results.size(); ++i) {
      ExpectSameResult(steady_results[i], flip_results[i],
                       "packet " + std::to_string(i));
      EXPECT_TRUE(steady_pkts[i] == flip_pkts[i])
          << "packet bytes diverged at " << i;
    }
  }
}

// Structural check of dead-stage elision: the PISA plan has one group per
// *mapped* physical stage (empty stages vanish from the walk), their
// traversal cycles folded into successor entry charges or the side tails,
// and the plan only exists in specialize mode.
TEST(ExecModeEquivalence, PbmPlanElidesEmptyStages) {
  net::Workload populate_workload(WorkloadFor(UseCase::kBase));
  auto setup = MakePisaSetup(UseCase::kBase, &populate_workload);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  pisa::PisaSwitch& dev = *setup->device;

  std::string plan = dev.PlanToString();
  ASSERT_FALSE(plan.empty());
  size_t groups = 0;
  for (size_t pos = plan.find("[unit"); pos != std::string::npos;
       pos = plan.find("[unit", pos + 1)) {
    ++groups;
  }
  EXPECT_EQ(groups, dev.ActiveIngressStages() + dev.ActiveEgressStages());
  // The base design maps fewer programs than physical stages, so elision
  // must actually fire: folded entry charges (+Ncy, N > 1) or tail charges.
  ASSERT_LT(groups,
            static_cast<size_t>(2 * dev.physical_ingress_stages()));
  EXPECT_TRUE(plan.find("tail+") != std::string::npos ||
              plan.find("+2cy") != std::string::npos ||
              plan.find("+3cy") != std::string::npos)
      << plan;

  dev.SetExecMode(arch::ExecMode::kCompile);
  EXPECT_EQ(dev.PlanToString(), "");
  dev.SetExecMode(arch::ExecMode::kInterpret);
  EXPECT_EQ(dev.PlanToString(), "");
}

// Traced runs are the only ones that fill stage names (the compiled walk
// sets the StageRunStats views only under fill_names): every execution mode
// must report the same stages, tables, hits, actions and parsed headers as
// the name-based interpreter.
template <typename MakeSetup>
void CheckTracedNamesMatchInterpreter(MakeSetup make, UseCase uc) {
  SCOPED_TRACE(UseCaseName(uc));
  std::vector<std::vector<telemetry::ProcessTrace>> traces(3);
  for (size_t m = 0; m < 3; ++m) {
    net::Workload populate_workload(WorkloadFor(uc));
    auto setup = make(uc, &populate_workload);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    setup->device->SetExecMode(kAllModes[m]);
    for (net::Packet& p : MakeWorkloadPackets(uc)) {
      telemetry::ProcessTrace trace;
      auto r = setup->device->Process(p, 1, &trace);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      traces[m].push_back(std::move(trace));
    }
  }
  size_t named_tables = 0;
  for (size_t m = 1; m < 3; ++m) {
    ASSERT_EQ(traces[0].size(), traces[m].size());
    for (size_t i = 0; i < traces[0].size(); ++i) {
      SCOPED_TRACE(std::string(ModeName(kAllModes[m])) + " packet " +
                   std::to_string(i));
      const telemetry::ProcessTrace& want = traces[0][i];
      const telemetry::ProcessTrace& got = traces[m][i];
      EXPECT_EQ(want.parsed_headers, got.parsed_headers);
      ASSERT_EQ(want.steps.size(), got.steps.size());
      for (size_t s = 0; s < want.steps.size(); ++s) {
        EXPECT_EQ(want.steps[s].stage, got.steps[s].stage);
        EXPECT_EQ(want.steps[s].table, got.steps[s].table);
        EXPECT_EQ(want.steps[s].hit, got.steps[s].hit);
        EXPECT_EQ(want.steps[s].action, got.steps[s].action);
        EXPECT_FALSE(got.steps[s].action.empty());
        if (!got.steps[s].table.empty()) ++named_tables;
      }
    }
  }
  EXPECT_GT(named_tables, 0u);
}

TEST(TracedNames, IpbmMatchesInterpreter) {
  for (UseCase uc : kAllUseCases) {
    CheckTracedNamesMatchInterpreter(
        [](UseCase u, const net::Workload* w) { return MakeRp4Setup(u, w); },
        uc);
  }
}

TEST(TracedNames, PbmMatchesInterpreter) {
  for (UseCase uc : kAllUseCases) {
    CheckTracedNamesMatchInterpreter(
        [](UseCase u, const net::Workload* w) { return MakePisaSetup(u, w); },
        uc);
  }
}

// A template whose guard names an undeclared metadata field cannot compile,
// so the stage runs on the interpreter fallback. The device counts it in
// DeviceStats and /metrics exports the gauge; clearing the template brings
// the count back to zero.
TEST(InterpreterFallback, UncompilableStageIsCountedAndExported) {
  net::Workload populate_workload(WorkloadFor(UseCase::kBase));
  auto setup = MakeRp4Setup(UseCase::kBase, &populate_workload);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  ipbm::IpbmSwitch& dev = *setup->device;

  uint32_t free_tsp = dev.pipeline().tsp_count();
  for (uint32_t i = 0; i < dev.pipeline().tsp_count(); ++i) {
    if (dev.pipeline().tsp(i).programs().empty()) {
      free_tsp = i;
      break;
    }
  }
  ASSERT_LT(free_tsp, dev.pipeline().tsp_count());

  // The first rule always ends the matcher, so the undeclared field is
  // never read at run time; it only makes CompileStage fail.
  arch::StageProgram probe;
  probe.name = "ghost_guard";
  probe.matcher.push_back(arch::MatchRule{nullptr, ""});
  probe.matcher.push_back(arch::MatchRule{
      arch::Expr::Binary(arch::Expr::Op::kEq,
                         arch::Expr::Field(arch::FieldRef::Meta("ghost")),
                         arch::Expr::ConstU(1, 1)),
      ""});
  ASSERT_TRUE(
      dev.WriteTspTemplate(free_tsp, ipbm::TspRole::kEgress, {probe}).ok());

  net::Packet packet = MakeWorkloadPackets(UseCase::kBase).front();
  auto r = dev.Process(packet, 1);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(dev.stats().interpreted_stages, 1u);

  std::string metrics = telemetry::RenderPrometheus(
      dev.telemetry().Snapshot(dev.config_epoch(), dev.stats()), "ipsa");
  EXPECT_NE(metrics.find("ipsa_interpreted_stages{arch=\"ipsa\"} 1\n"),
            std::string::npos)
      << metrics;

  ASSERT_TRUE(dev.ClearTsp(free_tsp).ok());
  ASSERT_TRUE(dev.Process(packet, 1).ok());
  EXPECT_EQ(dev.stats().interpreted_stages, 0u);
}

}  // namespace
}  // namespace ipsa
