// Pins Table 1's structural columns: everything bench_table1 prints that is
// not wall time. The hardware-flow t_L is the config-channel model applied to
// exact config-word counts, so it is as deterministic as the words; the
// device-op counts, the C3 insert/update/remove words and the Fig. 4 TSP maps
// are plain counts and names. A compiler or front-end change that moves any
// of them changes the paper's reproduced table.
#include <gtest/gtest.h>

#include <string>

#include "bench/table1.h"

namespace ipsa::bench {
namespace {

constexpr UseCase kCases[] = {UseCase::kEcmp, UseCase::kSrv6, UseCase::kProbe};

TEST(Table1Pin, HardwareFlowLoadTimes) {
  const double pisa_tl[] = {277.00, 284.50, 278.75};
  const double ipsa_tl[] = {11.00, 25.00, 11.25};
  for (size_t i = 0; i < 3; ++i) {
    auto pisa = PisaFlowUpdate(kCases[i], /*hardware=*/true);
    ASSERT_TRUE(pisa.ok()) << pisa.status().ToString();
    EXPECT_DOUBLE_EQ(pisa->tl_ms, pisa_tl[i]) << UseCaseName(kCases[i]);
    auto ipsa = Rp4FlowUpdate(kCases[i], /*hardware=*/true);
    ASSERT_TRUE(ipsa.ok()) << ipsa.status().ToString();
    EXPECT_DOUBLE_EQ(ipsa->tl_ms, ipsa_tl[i]) << UseCaseName(kCases[i]);
  }
}

TEST(Table1Pin, DeviceOpsPerUpdate) {
  const size_t ops[] = {5, 12, 5};
  for (size_t i = 0; i < 3; ++i) {
    auto row = Rp4FlowUpdate(kCases[i], /*hardware=*/true);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ(row->device_ops, ops[i]) << UseCaseName(kCases[i]);
  }
}

TEST(Table1Pin, ProbeLoadUpdateRemoveConfigWords) {
  auto setup = MakeRp4Setup(UseCase::kBase);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  struct Step {
    const std::string& script;
    uint64_t words;
  };
  const Step steps[] = {
      {controller::designs::ProbeScript(), 37},
      {controller::designs::ProbeUpdateScript(), 23},
      {controller::designs::ProbeRemoveScript(), 4},
  };
  for (const Step& step : steps) {
    uint64_t before = setup->device->stats().config_words_written;
    auto timing = setup->controller->ApplyScript(
        step.script, controller::designs::ResolveSnippet);
    ASSERT_TRUE(timing.ok()) << timing.status().ToString();
    EXPECT_EQ(setup->device->stats().config_words_written - before, step.words)
        << step.script;
  }
}

TEST(Table1Pin, TspMapsAfterEachUpdate) {
  const char* kHead =
      "TSP0  [ingress] port_map\n"
      "TSP1  [ingress] bridge_vrf,l2_l3\n";
  const char* kTail =
      "TSP11 [egress ] l2_l3_rewrite,dmac\n";
  const std::string maps[] = {
      std::string(kHead) +
          "TSP2  [ingress] ipv4_host\n"
          "TSP3  [ingress] ipv4_lpm\n"
          "TSP4  [ingress] ecmp\n"
          "TSP5  [bypass ] -\n"
          "TSP6  [bypass ] -\n"
          "TSP7  [bypass ] -\n"
          "TSP8  [bypass ] -\n"
          "TSP9  [bypass ] -\n"
          "TSP10 [bypass ] -\n" +
          kTail,
      std::string(kHead) +
          "TSP2  [ingress] srv6\n"
          "TSP3  [ingress] ipv4_host\n"
          "TSP4  [ingress] ipv4_lpm\n"
          "TSP5  [ingress] nexthop\n"
          "TSP6  [bypass ] -\n"
          "TSP7  [bypass ] -\n"
          "TSP8  [bypass ] -\n"
          "TSP9  [bypass ] -\n"
          "TSP10 [bypass ] -\n" +
          kTail,
      std::string(kHead) +
          "TSP2  [ingress] ipv4_host\n"
          "TSP3  [ingress] ipv4_lpm\n"
          "TSP4  [ingress] flow_probe\n"
          "TSP5  [ingress] nexthop\n"
          "TSP6  [bypass ] -\n"
          "TSP7  [bypass ] -\n"
          "TSP8  [bypass ] -\n"
          "TSP9  [bypass ] -\n"
          "TSP10 [bypass ] -\n" +
          kTail,
  };
  for (size_t i = 0; i < 3; ++i) {
    auto setup = MakeRp4Setup(kCases[i]);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    EXPECT_EQ(setup->device->pipeline().MappingToString(), maps[i])
        << UseCaseName(kCases[i]);
  }
}

}  // namespace
}  // namespace ipsa::bench
