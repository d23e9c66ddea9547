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

#include <algorithm>
#include <random>
#include <span>
#include <type_traits>
#include <vector>

#include "arch/context.h"
#include "arch/stage.h"
#include "bench/common.h"
#include "controller/baseline.h"
#include "controller/designs.h"
#include "ipsa/ipbm.h"
#include "pisa/pisa_switch.h"
#include "net/packet_builder.h"
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

void ExpectSameResult(const telemetry::ProcessResult& a,
                      const telemetry::ProcessResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.dropped, b.dropped) << what;
  EXPECT_EQ(a.marked, b.marked) << what;
  EXPECT_EQ(a.egress_port, b.egress_port) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.headers_parsed, b.headers_parsed) << what;
  EXPECT_DOUBLE_EQ(a.pipeline_ii, b.pipeline_ii) << what;
}

// Every table's hit/miss counters and the read counter of every pool block
// backing a table, in catalog order. Workers count lookups into local
// tallies merged at the end of each call or drain share; these are the
// merged totals.
struct LookupCounters {
  std::vector<std::string> tables;
  std::vector<uint64_t> hits;
  std::vector<uint64_t> misses;
  std::vector<uint64_t> block_reads;
};

template <typename Device>
LookupCounters CountersOf(Device& device) {
  LookupCounters c;
  const arch::TableCatalog& catalog = device.catalog();
  for (const std::string& name : catalog.TableNames()) {
    auto t = catalog.Get(name);
    if (!t.ok()) continue;
    c.tables.push_back(name);
    c.hits.push_back((*t)->hits());
    c.misses.push_back((*t)->misses());
    for (uint32_t id : (*t)->storage().block_ids()) {
      c.block_reads.push_back(device.pool().block(id).reads());
    }
  }
  return c;
}

// The two devices ran the same packets, so every counter must agree; and
// they must have counted something, or a tally that never merges would
// pass as "equal".
template <typename Device>
void ExpectSameLookupCounters(Device& a, Device& b) {
  LookupCounters ca = CountersOf(a);
  LookupCounters cb = CountersOf(b);
  ASSERT_EQ(ca.tables, cb.tables);
  for (size_t i = 0; i < ca.tables.size(); ++i) {
    EXPECT_EQ(ca.hits[i], cb.hits[i]) << "hits of " << ca.tables[i];
    EXPECT_EQ(ca.misses[i], cb.misses[i]) << "misses of " << ca.tables[i];
  }
  EXPECT_EQ(ca.block_reads, cb.block_reads);
  uint64_t lookups = 0, hits = 0, reads = 0;
  for (size_t i = 0; i < ca.tables.size(); ++i) {
    lookups += ca.hits[i] + ca.misses[i];
    hits += ca.hits[i];
  }
  for (uint64_t r : ca.block_reads) reads += r;
  EXPECT_GT(lookups, 0u);
  // A hit reads one row from each grid column, so at least one block read.
  EXPECT_GE(reads, hits);
}

// Process() one at a time on device A vs one ProcessBatch() on device B:
// identical results, identical final packet bytes and identical lookup
// counters.
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

  std::vector<telemetry::ProcessResult> serial_results;
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
  ExpectSameLookupCounters(*serial->device, *batch->device);
}

// RunToCompletion(1) vs RunToCompletion(4) on identically-filled ports:
// identical TX queues, identical device counters and identical lookup
// counters.
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

  const telemetry::DeviceStats& ss = serial->device->stats();
  const telemetry::DeviceStats& ps = parallel->device->stats();
  EXPECT_EQ(ss.packets_in, ps.packets_in);
  EXPECT_EQ(ss.packets_out, ps.packets_out);
  EXPECT_EQ(ss.packets_dropped, ps.packets_dropped);
  EXPECT_EQ(ss.packets_marked, ps.packets_marked);
  EXPECT_EQ(ss.total_cycles, ps.total_cycles);
  ExpectSameLookupCounters(*serial->device, *parallel->device);
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
                            std::vector<telemetry::ProcessResult>& out) {
      for (size_t i = from; i < to; ++i) {
        auto r = setup->device->Process(pkts[i], 1);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        out.push_back(*r);
      }
    };

    std::vector<telemetry::ProcessResult> plain_results;
    std::vector<telemetry::ProcessResult> rewr_results;
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
// Execution-mode equivalence: interpreter vs compiled stages in the plan
// ---------------------------------------------------------------------------

constexpr arch::ExecMode kAllModes[] = {arch::ExecMode::kInterpret,
                                        arch::ExecMode::kSpecialize};
constexpr size_t kModes = std::size(kAllModes);

const char* ModeName(arch::ExecMode m) {
  switch (m) {
    case arch::ExecMode::kInterpret: return "interpret";
    case arch::ExecMode::kSpecialize: return "specialize";
  }
  return "?";
}

// Identically-configured devices, one per execution mode, fed the same
// workload: results, cycle ledgers and final packet bytes must be
// bit-identical (the compiled stages promise exactly the interpreter's
// semantics and cycle charges).
template <typename MakeSetup>
void CheckExecModeEquivalence(MakeSetup make, UseCase uc) {
  SCOPED_TRACE(UseCaseName(uc));
  std::vector<std::vector<telemetry::ProcessResult>> results(kModes);
  std::vector<std::vector<net::Packet>> pkts;
  for (size_t m = 0; m < kModes; ++m) {
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
  for (size_t m = 1; m < kModes; ++m) {
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
// config mutation: the plan is rebuilt with every program on the
// interpreter, and the next specialize rebuilds it with the compiled stages
// under the new epoch. Results must stay identical to a device that never
// left the compiled stages.
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

    std::vector<telemetry::ProcessResult> steady_results;
    std::vector<telemetry::ProcessResult> flip_results;
    auto process_range = [](auto& setup, std::vector<net::Packet>& pkts,
                            size_t from, size_t to,
                            std::vector<telemetry::ProcessResult>& out) {
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
// traversal cycles folded into successor entry charges or the side tails.
// Both modes walk the same plan; interpret mode only swaps every program
// onto the interpreter, which the plan string marks "(interp)".
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

  EXPECT_EQ(plan.find("(interp)"), std::string::npos) << plan;

  // Interpret mode walks the same plan: stripping its markers (one per
  // program, and a PISA group holds one) must give the plan above verbatim.
  dev.SetExecMode(arch::ExecMode::kInterpret);
  std::string interp_plan = dev.PlanToString();
  constexpr std::string_view kMark = "(interp)";
  size_t marks = 0;
  for (size_t pos; (pos = interp_plan.find(kMark)) != std::string::npos;
       ++marks) {
    interp_plan.erase(pos, kMark.size());
  }
  EXPECT_EQ(marks, groups);
  EXPECT_EQ(interp_plan, plan);
}

// Traced runs are the only ones that fill stage names (the compiled stages
// set the StageRunStats views only under fill_names): the compiled stages
// must report the same stages, tables, hits, actions and parsed headers as
// the name-based interpreter.
template <typename MakeSetup>
void CheckTracedNamesMatchInterpreter(MakeSetup make, UseCase uc) {
  SCOPED_TRACE(UseCaseName(uc));
  std::vector<std::vector<telemetry::ProcessTrace>> traces(kModes);
  for (size_t m = 0; m < kModes; ++m) {
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
  for (size_t m = 1; m < kModes; ++m) {
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

// ---------------------------------------------------------------------------
// Cycle ledger: the plan's dead-stage folding against hand-computed cycles
// ---------------------------------------------------------------------------

// Every mode walks the same plan, so the differential oracle cannot catch a
// plan that folds empty stages wrongly; these constants can. The design is
// tiny on purpose: no tables, and every action is one op (1 cycle each),
// except drop_on_7, an `if` (1 cycle) whose taken branch adds a drop
// (1 cycle) for packets from port 7.
arch::DesignConfig LedgerDesign() {
  using arch::ActionOp;
  using arch::Expr;
  arch::DesignConfig d;
  d.name = "ledger";
  d.headers = arch::HeaderRegistry::StandardL2L3();
  d.actions.push_back({.name = "nop", .params = {}, .body = {ActionOp::Noop()}});
  d.actions.push_back({.name = "fwd",
                       .params = {},
                       .body = {ActionOp::Forward(Expr::ConstU(3, 9))}});
  d.actions.push_back(
      {.name = "drop_on_7",
       .params = {},
       .body = {ActionOp::If(
           Expr::Binary(Expr::Op::kEq,
                        Expr::Field(arch::FieldRef::Meta("ingress_port")),
                        Expr::ConstU(7, 9)),
           {ActionOp::Drop()})}});
  auto stage = [](std::string name, std::string action,
                  std::vector<std::string> parse_set = {}) {
    arch::StageProgram p;
    p.name = std::move(name);
    p.parse_set = std::move(parse_set);
    p.miss_action = std::move(action);
    return p;
  };
  // in_a's parse set only matters to ipbm (pbm parses up front).
  d.ingress_stages = {stage("in_a", "nop", {"ethernet"}),
                      stage("in_guard", "drop_on_7"), stage("in_fwd", "fwd")};
  d.egress_stages = {stage("eg", "nop")};
  return d;
}

// Ethernet only (the ether type links to nothing): one header to parse.
net::Packet LedgerPacket() {
  return net::PacketBuilder()
      .Ethernet(net::MacAddr::FromUint64(0x02), net::MacAddr::FromUint64(0x01),
                0x88B5)
      .Payload(32)
      .Build();
}

// Runs a forwarded (port 1) and a dropped (port 7) packet in both modes and
// checks their cycles against the hand-computed constants.
template <typename Device>
void CheckLedger(Device& dev, uint64_t forward_cycles, uint64_t drop_cycles) {
  for (arch::ExecMode mode : kAllModes) {
    SCOPED_TRACE(ModeName(mode));
    dev.SetExecMode(mode);
    net::Packet forwarded = LedgerPacket();
    auto fwd = dev.Process(forwarded, 1);
    ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
    EXPECT_FALSE(fwd->dropped);
    EXPECT_EQ(fwd->egress_port, 3u);
    EXPECT_EQ(fwd->cycles, forward_cycles) << dev.PlanToString();
    net::Packet dropped = LedgerPacket();
    auto drop = dev.Process(dropped, 7);
    ASSERT_TRUE(drop.ok()) << drop.status().ToString();
    EXPECT_TRUE(drop->dropped);
    EXPECT_EQ(drop->cycles, drop_cycles) << dev.PlanToString();
    if (mode == arch::ExecMode::kSpecialize) {
      EXPECT_EQ(dev.stats().interpreted_stages, 0u);
    }
  }
}

TEST(CycleLedger, PlanMatchesHandComputedCycles) {
  {
    SCOPED_TRACE("pbm");
    // 4 physical ingress stages hold in_a, in_guard, in_fwd and one empty
    // stage; 3 egress stages hold eg and two empties. Every physical stage
    // costs 1 cycle to traverse, programs or not; the front parser charges
    // 1 for the ethernet header; PISA's traffic manager is free.
    //   forwarded: parse 1 + ingress 4 stages + 3 actions
    //              + egress 3 stages + 1 action                    = 12
    //   dropped:   parse 1 + in_a (1 + 1) + in_guard (1 + if 1 + drop 1)
    //              — the drop skips in_fwd, the empty ingress stage
    //              (the ingress tail) and the whole egress side    = 6
    pisa::PisaOptions options;
    options.physical_ingress_stages = 4;
    options.physical_egress_stages = 3;
    pisa::PisaSwitch dev(options);
    ASSERT_TRUE(dev.LoadDesign(LedgerDesign()).ok());
    CheckLedger(dev, 12, 6);
  }
  {
    SCOPED_TRACE("ipbm");
    // TSP 0 (ingress) holds in_a, TSP 2 (ingress) in_guard + in_fwd, TSP 4
    // (egress) eg; TSPs 1, 3 and 5.. are bypassed and cost nothing. Each
    // active TSP charges 2 cycles on entry (traversal + template-parameter
    // load), in_a charges 1 for parsing ethernet just in time, and the
    // traffic manager between the sides charges 1.
    //   forwarded: TSP0 (2 + parse 1 + nop 1) + TSP2 (2 + if 1 + fwd 1)
    //              + TM 1 + TSP4 (2 + nop 1)                       = 12
    //   dropped:   TSP0 4 + TSP2 (2 + if 1 + drop 1) — the drop skips
    //              in_fwd, the TM and the egress TSP               = 8
    ipbm::IpbmSwitch dev;
    ASSERT_TRUE(dev.LoadBaseDesign(
                       LedgerDesign(),
                       {{.tsp_id = 0,
                         .role = ipbm::TspRole::kIngress,
                         .stage_names = {"in_a"}},
                        {.tsp_id = 2,
                         .role = ipbm::TspRole::kIngress,
                         .stage_names = {"in_guard", "in_fwd"}},
                        {.tsp_id = 4,
                         .role = ipbm::TspRole::kEgress,
                         .stage_names = {"eg"}}})
                    .ok());
    CheckLedger(dev, 12, 8);
  }
}

// ---------------------------------------------------------------------------
// Partial rebuilds after in-situ updates
// ---------------------------------------------------------------------------

// FNV-1a over each packet's bytes and its verdict.
uint64_t TxDigest(const std::vector<net::Packet>& packets,
                  const std::vector<telemetry::ProcessResult>& results) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (size_t i = 0; i < packets.size(); ++i) {
    mix(results[i].dropped ? ~uint64_t{0} : results[i].egress_port);
    for (uint8_t b : packets[i].bytes()) mix(b);
  }
  return h;
}

// After an update, `partial`'s lazy rebuild recompiles only the TSPs the
// update touched. Flipping `full`'s exec mode (it took the same updates)
// forces it to recompile every TSP. Both must then print the same plan and
// forward the same traffic to the same bytes. Returns the stage compiles
// of the partial and of the full rebuild.
std::pair<uint64_t, uint64_t> ExpectPartialRebuildMatchesFull(
    bench::Rp4Setup& partial, bench::Rp4Setup& full, UseCase traffic) {
  const uint64_t p0 = partial.device->stage_compiles();
  const std::string plan = partial.device->PlanToString();
  const uint64_t partial_compiles = partial.device->stage_compiles() - p0;
  full.device->SetExecMode(arch::ExecMode::kInterpret);
  full.device->SetExecMode(arch::ExecMode::kSpecialize);
  const uint64_t f0 = full.device->stage_compiles();
  EXPECT_EQ(plan, full.device->PlanToString());
  const uint64_t full_compiles = full.device->stage_compiles() - f0;
  EXPECT_LE(partial_compiles, full_compiles);

  std::vector<net::Packet> a = MakeWorkloadPackets(traffic);
  std::vector<net::Packet> b = a;
  auto ra = partial.device->ProcessBatch(std::span(a), 1);
  auto rb = full.device->ProcessBatch(std::span(b), 1);
  EXPECT_TRUE(ra.ok() && rb.ok());
  if (ra.ok() && rb.ok()) {
    EXPECT_EQ(TxDigest(a, *ra), TxDigest(b, *rb));
  }
  return {partial_compiles, full_compiles};
}

// Each use case from a fresh base design: the removes do not restore the
// stages the inserts replaced, so the use cases do not chain.
TEST(PartialRebuildTest, UseCaseInsertAndRemoveMatchFullRebuild) {
  struct Step {
    UseCase uc;
    std::string insert;
    std::string remove;
  };
  const Step steps[] = {
      {UseCase::kEcmp, controller::designs::EcmpScript(),
       controller::designs::EcmpRemoveScript()},
      {UseCase::kSrv6, controller::designs::Srv6Script(),
       "remove --func_name srv6\n"},
      {UseCase::kProbe, controller::designs::ProbeScript(),
       controller::designs::ProbeRemoveScript()},
  };
  for (const Step& step : steps) {
    SCOPED_TRACE(UseCaseName(step.uc));
    auto partial = MakeRp4Setup(UseCase::kBase);
    auto full = MakeRp4Setup(UseCase::kBase);
    ASSERT_TRUE(partial.ok() && full.ok());
    ExpectPartialRebuildMatchesFull(*partial, *full, UseCase::kBase);
    for (bench::Rp4Setup* s : {&*partial, &*full}) {
      auto t = s->controller->ApplyScript(step.insert,
                                          controller::designs::ResolveSnippet);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      auto add = [s](const std::string& table, const table::Entry& e) {
        return s->controller->AddEntry(table, e);
      };
      const compiler::ApiSpec& api = s->controller->api();
      Status populated = OkStatus();
      if (step.uc == UseCase::kEcmp) {
        populated = controller::PopulateEcmp(api, add, s->config);
      } else if (step.uc == UseCase::kSrv6) {
        populated = controller::PopulateSrv6(api, add, s->config);
      } else {
        net::Workload workload(WorkloadFor(UseCase::kProbe));
        populated = controller::PopulateProbe(api, add, workload, 32, 4);
      }
      ASSERT_TRUE(populated.ok()) << populated.ToString();
    }
    auto [inserted, inserted_full] =
        ExpectPartialRebuildMatchesFull(*partial, *full, step.uc);
    for (bench::Rp4Setup* s : {&*partial, &*full}) {
      auto t = s->controller->ApplyScript(step.remove,
                                          controller::designs::ResolveSnippet);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
    }
    auto [removed, removed_full] =
        ExpectPartialRebuildMatchesFull(*partial, *full, step.uc);
    if (step.uc == UseCase::kEcmp) {
      // C1 writes no header or metadata: both of its rebuilds reuse TSPs.
      EXPECT_LT(inserted, inserted_full);
      EXPECT_LT(removed, removed_full);
    }
  }
}

// No template is rewritten here, so only name tracking can tell which TSPs
// must recompile: the one whose stage runs the replaced action (set_port,
// now a no-op) and the one whose stage applies the replaced, now empty,
// table (dmac). Keeping either TSP's compiled programs would forward with
// the old action body or look up the destroyed table.
TEST(PartialRebuildTest, ReplacedActionAndTableRecompileTheTspsUsingThem) {
  auto partial = MakeRp4Setup(UseCase::kBase);
  auto full = MakeRp4Setup(UseCase::kBase);
  ASSERT_TRUE(partial.ok() && full.ok());
  ExpectPartialRebuildMatchesFull(*partial, *full, UseCase::kBase);

  const arch::DesignConfig& design = partial->controller->design();
  auto action = std::find_if(
      design.actions.begin(), design.actions.end(),
      [](const arch::ActionDef& a) { return a.name == "set_port"; });
  auto table = std::find_if(
      design.tables.begin(), design.tables.end(),
      [](const arch::TableDecl& t) { return t.spec.name == "dmac"; });
  ASSERT_NE(action, design.actions.end());
  ASSERT_NE(table, design.tables.end());
  arch::ActionDef noop = *action;
  noop.body.clear();
  const arch::TableDecl empty = *table;
  for (bench::Rp4Setup* s : {&*partial, &*full}) {
    ASSERT_TRUE(s->device->RemoveAction("set_port").ok());
    ASSERT_TRUE(s->device->AddAction(noop).ok());
  }
  auto [replaced_action, full_action] =
      ExpectPartialRebuildMatchesFull(*partial, *full, UseCase::kBase);
  EXPECT_GT(replaced_action, 0u);
  EXPECT_LT(replaced_action, full_action);

  for (bench::Rp4Setup* s : {&*partial, &*full}) {
    ASSERT_TRUE(s->device->DestroyTable("dmac").ok());
    ASSERT_TRUE(s->device->CreateTable(empty).ok());
  }
  auto [replaced_table, full_table] =
      ExpectPartialRebuildMatchesFull(*partial, *full, UseCase::kBase);
  EXPECT_GT(replaced_table, 0u);
  EXPECT_LT(replaced_table, full_table);
}

}  // namespace
}  // namespace ipsa
