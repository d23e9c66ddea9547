// In-network compute tests: fixed-point extern semantics (kernel-level and
// across the interpreter and compiled execution modes at width
// boundaries), and exactly-once allreduce aggregation under randomized
// duplicate/reorder schedules against a host-side golden reduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "arch/expr.h"
#include "controller/runtime_api.h"
#include "daemon/backends.h"
#include "fabric/allreduce.h"
#include "fabric/leaf_spine.h"
#include "mem/block.h"
#include "net/headers.h"
#include "net/packet_builder.h"

namespace ipsa {
namespace {

using arch::EvalBinaryKernel;
using arch::Expr;
using mem::BitString;

// --- extern kernel semantics -------------------------------------------------

uint64_t Kernel(Expr::Op op, uint32_t wa, uint64_t a, uint32_t wb, uint64_t b,
                uint32_t* out_width = nullptr) {
  auto r = EvalBinaryKernel(op, BitString(wa, a), BitString(wb, b));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (out_width != nullptr) {
    *out_width = static_cast<uint32_t>(r->bit_width());
  }
  return r->ToUint64();
}

TEST(ExternKernelTest, SatAddClampsAtResultWidth) {
  EXPECT_EQ(Kernel(Expr::Op::kSatAdd, 8, 0xFF, 8, 1), 0xFFu);
  EXPECT_EQ(Kernel(Expr::Op::kSatAdd, 8, 0x7F, 8, 0x80), 0xFFu);  // exact
  EXPECT_EQ(Kernel(Expr::Op::kSatAdd, 16, 0xFFFF, 16, 0xFFFF), 0xFFFFu);
  EXPECT_EQ(Kernel(Expr::Op::kSatAdd, 32, 0xFFFFFFFFull, 32, 2), 0xFFFFFFFFull);
  EXPECT_EQ(Kernel(Expr::Op::kSatAdd, 48, (1ull << 48) - 1, 48, 1),
            (1ull << 48) - 1);
  EXPECT_EQ(Kernel(Expr::Op::kSatAdd, 64, ~0ull, 64, 1), ~0ull);
  EXPECT_EQ(Kernel(Expr::Op::kSatAdd, 64, ~0ull - 5, 64, 5), ~0ull - 0);
  // Mixed widths widen to the larger operand.
  uint32_t w = 0;
  EXPECT_EQ(Kernel(Expr::Op::kSatAdd, 8, 0xFF, 16, 0xFF00, &w), 0xFFFFu);
  EXPECT_EQ(w, 16u);
  EXPECT_EQ(Kernel(Expr::Op::kSatAdd, 16, 0xFFFF, 8, 1), 0xFFFFu);
}

TEST(ExternKernelTest, QuantizeSaturatingShift) {
  EXPECT_EQ(Kernel(Expr::Op::kFxpQuantize, 16, 0x7FFF, 16, 1), 0xFFFEu);
  EXPECT_EQ(Kernel(Expr::Op::kFxpQuantize, 16, 0x8000, 16, 1), 0xFFFFu);
  EXPECT_EQ(Kernel(Expr::Op::kFxpQuantize, 16, 0, 16, 12), 0u);
  // Shift >= width saturates any nonzero value.
  EXPECT_EQ(Kernel(Expr::Op::kFxpQuantize, 8, 1, 8, 8), 0xFFu);
  EXPECT_EQ(Kernel(Expr::Op::kFxpQuantize, 8, 1, 8, 200), 0xFFu);
  // The result width is max(operand widths): a wide shift operand widens
  // the lane, so the headroom grows with it.
  EXPECT_EQ(Kernel(Expr::Op::kFxpQuantize, 8, 1, 16, 8), 0x100u);
  EXPECT_EQ(Kernel(Expr::Op::kFxpQuantize, 8, 1, 16, 200), 0xFFFFu);
  EXPECT_EQ(Kernel(Expr::Op::kFxpQuantize, 64, 1, 16, 63), 1ull << 63);
  EXPECT_EQ(Kernel(Expr::Op::kFxpQuantize, 64, 3, 16, 63), ~0ull);
}

TEST(ExternKernelTest, DequantizeRoundsToNearest) {
  EXPECT_EQ(Kernel(Expr::Op::kFxpDequantize, 64, 5, 16, 1), 3u);   // 2.5 -> 3
  EXPECT_EQ(Kernel(Expr::Op::kFxpDequantize, 64, 4, 16, 1), 2u);
  EXPECT_EQ(Kernel(Expr::Op::kFxpDequantize, 64, 123, 16, 0), 123u);
  EXPECT_EQ(Kernel(Expr::Op::kFxpDequantize, 64, 1ull << 63, 16, 64), 1u);
  EXPECT_EQ(Kernel(Expr::Op::kFxpDequantize, 64, ~0ull, 16, 65), 0u);
  EXPECT_EQ(Kernel(Expr::Op::kFxpDequantize, 64, ~0ull, 16, 4),
            (~0ull >> 4) + 1);
}

TEST(ExternKernelTest, HostGoldenHelpersMatchKernelAtWidth64) {
  std::mt19937_64 rng(0xA11Eull);
  for (int i = 0; i < 2000; ++i) {
    uint64_t a = rng();
    uint64_t b = rng();
    uint64_t s = rng() % 70;
    EXPECT_EQ(Kernel(Expr::Op::kSatAdd, 64, a, 64, b),
              fabric::SatAdd64(a, b));
    EXPECT_EQ(Kernel(Expr::Op::kFxpQuantize, 64, a, 16, s & 0xFFFF),
              fabric::FxpQuantize64(a, s & 0xFFFF));
    EXPECT_EQ(Kernel(Expr::Op::kFxpDequantize, 64, a, 16, s & 0xFFFF),
              fabric::FxpDequantize64(a, s & 0xFFFF));
  }
}

// --- interpreter vs compiled vs specialized at width boundaries --------------
// PR-6 added a scalar expression lane to the compiled/specialized paths;
// register-accumulate plus the new externs must stay bit-identical with the
// interpreter at every field-width boundary. This is the regression pin for
// that audit.

constexpr uint16_t kWtEtherType = 0x8AB6;

const char* WidthProgram() {
  return R"rp4(headers {
  header ethernet {
    bit<48> dst_addr;
    bit<48> src_addr;
    bit<16> ether_type;
    implicit parser(ether_type) {
      35510: wt;
    }
  }
  header wt {
    bit<8> tag;
    bit<8> a8;
    bit<8> b8;
    bit<16> a16;
    bit<16> b16;
    bit<32> a32;
    bit<32> b32;
    bit<48> a48;
    bit<48> b48;
    bit<64> a64;
    bit<64> b64;
  }
}
entry_header = ethernet;
structs {
  struct metadata_t {
    bit<16> if_index;
  } meta;
}
register<bit<64>> acc[2];
action wt_step() {
  acc[0] = sat_add(acc[0], wt.a64);
  acc[1] = (acc[1] + wt.a64);
  wt.a8 = sat_add(wt.a8, wt.b8);
  wt.a16 = fxp_quantize(wt.a16, wt.b16);
  wt.a32 = sat_add(wt.a32, wt.b32);
  wt.a48 = fxp_quantize(wt.a48, wt.b48);
  wt.a64 = fxp_dequantize(acc[0], wt.b8);
  wt.b64 = acc[1];
  forward(1);
}
table wt_tbl {
  key = {
    wt.tag: exact;
  }
  actions = { wt_step; NoAction; }
  size = 4;
}
table wt_eg {
  key = {
    wt.tag: exact;
  }
  actions = { NoAction; }
  size = 4;
}
control rP4_Ingress {
  stage wt_stage {
    parser { wt; }
    matcher {
      if (wt.isValid()) wt_tbl.apply();
      else;
    }
    executor {
      1: wt_step;
      default: NoAction;
    }
  }
}
control rP4_Egress {
  stage wt_eg {
    parser { wt; }
    matcher {
      if (wt.isValid()) wt_eg.apply();
      else;
    }
    executor {
      default: NoAction;
    }
  }
}
user_funcs {
  func wtest { wt_stage; wt_eg; }
  ingress_entry: wt_stage;
  egress_entry: wt_eg;
}
)rp4";
}

struct WtValues {
  uint8_t a8, b8;
  uint16_t a16, b16;
  uint32_t a32, b32;
  uint64_t a48, b48;
  uint64_t a64, b64;
};

net::Packet MakeWtPacket(const WtValues& v) {
  std::vector<uint8_t> wt;
  auto be = [&wt](uint64_t value, int bytes) {
    for (int i = bytes - 1; i >= 0; --i) {
      wt.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  };
  be(1, 1);  // tag
  be(v.a8, 1);
  be(v.b8, 1);
  be(v.a16, 2);
  be(v.b16, 2);
  be(v.a32, 4);
  be(v.b32, 4);
  be(v.a48, 6);
  be(v.b48, 6);
  be(v.a64, 8);
  be(v.b64, 8);
  return net::PacketBuilder()
      .Ethernet(net::MacAddr::FromUint64(0x02), net::MacAddr::FromUint64(0x01),
                kWtEtherType)
      .RawBytes(wt)
      .Build();
}

std::unique_ptr<daemon::DeviceBackend> MakeWidthBackend(arch::ExecMode mode) {
  auto dev = std::make_unique<daemon::IpsaBackend>();
  auto install = dev->Install(rpc::InstallKind::kBaseRp4, WidthProgram());
  EXPECT_TRUE(install.ok()) << install.status().ToString();
  dev->device().SetExecMode(mode);
  auto api = dev->Api();
  EXPECT_TRUE(api.ok()) << api.status().ToString();
  controller::EntryBuilder builder(*api);
  auto entry = builder.Build("wt_tbl", "wt_step", {controller::KeyValue(1)}, {});
  EXPECT_TRUE(entry.ok()) << entry.status().ToString();
  auto add = dev->ApplyTableOp(rpc::TableOp{.op = rpc::TableOpKind::kAdd,
                                            .table = "wt_tbl",
                                            .entry = std::move(entry).value()});
  EXPECT_TRUE(add.ok()) << add.ToString();
  return dev;
}

TEST(ExternLaneTest, RegisterAccumulateBitIdenticalAcrossLanes) {
  auto interp = MakeWidthBackend(arch::ExecMode::kInterpret);
  auto specialized = MakeWidthBackend(arch::ExecMode::kSpecialize);

  std::vector<WtValues> cases = {
      // Every lane at its clamp/saturation boundary.
      {0xFF, 0x01, 0x8000, 1, 0xFFFFFFFFu, 0xFFFFFFFFu, (1ull << 48) - 1, 1,
       ~0ull, 0},
      // Exactly-full sums: no clamp, but the top bit flips.
      {0x7F, 0x80, 0x7FFF, 1, 0x7FFFFFFFu, 0x80000000u, 0x7FFFFFFFFFFFull,
       0x800000000000ull, 1ull << 63, 0},
      // Shift >= width and zero-value quantize.
      {0, 64, 0, 200, 0, 0, 1, 48, 5, 0},
      // Dequantize rounding (b8 is the dequant shift of the accumulator).
      {1, 3, 1, 15, 1, 31, 1, 47, 0xA5A5A5A5A5A5A5A5ull, 0},
  };
  std::mt19937_64 rng(0x57EEDull);
  for (int i = 0; i < 24; ++i) {
    WtValues v;
    v.a8 = static_cast<uint8_t>(rng());
    v.b8 = static_cast<uint8_t>(rng() % 72);
    v.a16 = static_cast<uint16_t>(rng());
    v.b16 = static_cast<uint16_t>(rng() % 20);
    v.a32 = static_cast<uint32_t>(rng());
    v.b32 = static_cast<uint32_t>(rng());
    v.a48 = rng() & ((1ull << 48) - 1);
    v.b48 = rng() % 52;
    v.a64 = rng();
    v.b64 = rng();
    cases.push_back(v);
  }

  uint64_t acc0 = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    net::Packet packet = MakeWtPacket(cases[i]);
    auto tx_i = daemon::InjectAndDrain(*interp, packet, 0);
    auto tx_s = daemon::InjectAndDrain(*specialized, packet, 0);
    ASSERT_TRUE(tx_i.ok()) << tx_i.status().ToString();
    ASSERT_TRUE(tx_s.ok()) << tx_s.status().ToString();
    ASSERT_EQ(tx_i->size(), 1u) << "case " << i;
    ASSERT_EQ(tx_s->size(), 1u) << "case " << i;
    auto bytes = [](const daemon::TxPacket& t) {
      auto b = t.packet.bytes();
      return std::vector<uint8_t>(b.begin(), b.end());
    };
    EXPECT_EQ(bytes((*tx_i)[0]), bytes((*tx_s)[0]))
        << "interp vs specialized diverged on case " << i;

    // Absolute semantics of the 64-bit accumulate lane, vs the host model.
    acc0 = fabric::SatAdd64(acc0, cases[i].a64);
    std::vector<uint8_t> out = bytes((*tx_i)[0]);
    ASSERT_GE(out.size(), 14u + 43u);
    const uint8_t* wt = out.data() + 14;
    uint64_t a64_out = 0;
    for (int k = 0; k < 8; ++k) a64_out = a64_out << 8 | wt[27 + k];
    EXPECT_EQ(a64_out, fabric::FxpDequantize64(acc0, cases[i].b8))
        << "case " << i;
  }
}

// --- exactly-once aggregation under duplicate/reorder schedules --------------

fabric::LeafSpineOptions AllreduceFabric() {
  fabric::LeafSpineOptions options;
  options.leaves = 2;
  options.spines = 1;
  options.hosts_per_leaf = 2;
  options.fabric.shadow_oracle = true;
  options.fabric.capture_host_rx = true;
  return options;
}

class AllreducePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllreducePropertyTest, DuplicatesAndReorderingNeverChangeTheAggregate) {
  const uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  auto ls = fabric::LeafSpine::Create(AllreduceFabric());
  ASSERT_TRUE(ls.ok()) << ls.status().ToString();

  fabric::AllreduceOptions opts;
  opts.slots = 4;
  opts.shift = static_cast<uint32_t>(seed % 3);
  fabric::AllreduceJob job(**ls, opts);
  ASSERT_EQ(job.worker_count(), 3u);
  ASSERT_TRUE(job.InstallAggregation().ok());

  // Schedule: every (worker, slot) contribution 1-3 times, globally
  // shuffled, injected in bursts with drains at random cut points. The
  // aggregate must come out as if each contribution arrived exactly once.
  struct Item {
    uint32_t worker, slot, seq;
  };
  std::vector<Item> schedule;
  for (uint32_t slot = 0; slot < opts.slots; ++slot) {
    for (uint32_t w = 0; w < job.worker_count(); ++w) {
      uint32_t copies = 1 + static_cast<uint32_t>(rng() % 3);
      for (uint32_t c = 0; c < copies; ++c) schedule.push_back({w, slot, c});
    }
  }
  std::shuffle(schedule.begin(), schedule.end(), rng);
  for (const Item& item : schedule) {
    ASSERT_TRUE(job.InjectContribution(item.worker, item.slot, item.seq).ok());
    if (rng() % 4 == 0) {
      ASSERT_TRUE((*ls)->fabric().RunUntilQuiescent().ok());
    }
  }
  ASSERT_TRUE((*ls)->fabric().RunUntilQuiescent().ok());
  ASSERT_TRUE(job.CollectResults().ok());

  ASSERT_EQ(job.results().size(), opts.slots);
  for (uint32_t slot = 0; slot < opts.slots; ++slot) {
    const fabric::AlrResult& r = job.results().at(slot);
    EXPECT_EQ(r.v0, job.GoldenValue(slot, 0)) << "slot " << slot;
    EXPECT_EQ(r.v1, job.GoldenValue(slot, 1)) << "slot " << slot;
    EXPECT_GE(r.copies, 1u);
  }

  // Post-completion duplicates re-emit the identical result (retransmit
  // repair); CollectResults fails the test if any copy diverges.
  for (uint32_t w = 0; w < job.worker_count(); ++w) {
    ASSERT_TRUE(job.InjectContribution(w, 0, 100 + w).ok());
  }
  ASSERT_TRUE((*ls)->fabric().RunUntilQuiescent().ok());
  ASSERT_TRUE(job.CollectResults().ok());
  EXPECT_GE(job.results().at(0).copies, 4u);
  EXPECT_EQ(job.results().at(0).v0, job.GoldenValue(0, 0));

  auto report = (*ls)->fabric().CheckOracle();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToString();
  EXPECT_GT(report->device_drops, 0u);  // absorbed contributions
}

INSTANTIATE_TEST_SUITE_P(Schedules, AllreducePropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace ipsa
