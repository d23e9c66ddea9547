// Closed-loop reactive control tests: windowed snapshot deltas and staleness
// tracking, declarative condition evaluation, malleable-set enforcement at
// plan-compile time, pre-packed wire batches, and the three reference
// policies run end to end in the leaf–spine fabric under the conservation
// oracle.
#include <gtest/gtest.h>

#include "controller/baseline.h"
#include "controller/designs.h"
#include "controller/runtime_api.h"
#include "daemon/backends.h"
#include "fabric/leaf_spine.h"
#include "reactor/delta.h"
#include "reactor/fabric_policies.h"
#include "reactor/plan.h"
#include "reactor/policy.h"
#include "net/packet_builder.h"
#include "reactor/reactor.h"
#include "wire/wire.h"

namespace ipsa::reactor {
namespace {

using controller::Bits;
using controller::KeyValue;
using controller::MacBits;
using fabric::LeafSpine;
using fabric::LeafSpineOptions;
using telemetry::MetricsSnapshot;

// A routable IPv4 packet under the baseline population (same shape the
// daemon tests use).
net::Packet V4Packet(uint32_t dst_low, uint16_t sport) {
  controller::BaselineConfig config;
  return net::PacketBuilder()
      .Ethernet(net::MacAddr::FromUint64(config.router_mac_base),
                net::MacAddr::FromUint64(0x020000000001ull),
                net::kEtherTypeIpv4)
      .Ipv4(net::Ipv4Addr::FromString("192.168.0.1"),
            net::Ipv4Addr{0x0A000000 + dst_low}, net::kIpProtoUdp)
      .Udp(sport, 80)
      .Payload(32)
      .Build();
}

// --- delta / window units ----------------------------------------------------

MetricsSnapshot Snap(uint64_t seq, uint64_t in0, uint64_t out0,
                     uint64_t in1 = 0, uint64_t out1 = 0) {
  MetricsSnapshot s;
  s.enabled = true;
  s.seq = seq;
  telemetry::PortRow r0;
  r0.port = 0;
  r0.metrics.packets_in = in0;
  r0.metrics.packets_out = out0;
  for (uint64_t i = 0; i < in0; ++i) r0.metrics.cycles.Observe(10);
  s.ports.push_back(r0);
  if (in1 + out1 > 0) {
    telemetry::PortRow r1;
    r1.port = 1;
    r1.metrics.packets_in = in1;
    r1.metrics.packets_out = out1;
    s.ports.push_back(r1);
  }
  return s;
}

TEST(SourceWindow, TracksReadyFreshAndMissed) {
  SourceWindow w;
  EXPECT_EQ(w.Push(Snap(1, 5, 5)), 0u);  // first snapshot seeds
  EXPECT_FALSE(w.ready());
  EXPECT_EQ(w.Push(Snap(2, 9, 8)), 1u);
  EXPECT_TRUE(w.ready());
  EXPECT_TRUE(w.fresh());
  EXPECT_EQ(w.PortIn(0), 4u);
  EXPECT_EQ(w.port(0)->packets_out, 3u);
  EXPECT_EQ(w.PortIn(7), 0u) << "absent port reads as quiet";

  EXPECT_EQ(w.Push(Snap(2, 9, 8)), 0u);  // duplicate poll
  EXPECT_FALSE(w.fresh()) << "stale poll must not look like a fresh window";
  EXPECT_TRUE(w.ready());

  EXPECT_EQ(w.Push(Snap(5, 20, 19)), 3u);  // skipped 3 and 4
  EXPECT_TRUE(w.fresh());
  EXPECT_EQ(w.missed(), 2u);

  w.MarkStale();
  EXPECT_FALSE(w.fresh());

  EXPECT_EQ(w.Push(Snap(1, 2, 2)), 0u);  // seq went backwards: reseed
  EXPECT_FALSE(w.ready());
}

TEST(SourceWindow, ResetBetweenSnapshotsUsesCurAsWindow) {
  SourceWindow w;
  w.Push(Snap(1, 100, 100));
  // ResetMetrics landed between polls: counters restarted, seq kept going.
  w.Push(Snap(2, 6, 5));
  EXPECT_TRUE(w.ready());
  EXPECT_EQ(w.PortIn(0), 6u) << "post-reset counters are the whole window";
  EXPECT_EQ(w.port(0)->packets_out, 5u);
}

// --- condition evaluation ----------------------------------------------------

std::map<std::string, SourceWindow> OneWindow(const MetricsSnapshot& a,
                                              const MetricsSnapshot& b) {
  std::map<std::string, SourceWindow> ws;
  ws["dev"].Push(a);
  ws["dev"].Push(b);
  return ws;
}

TEST(Condition, PortRateAboveAndBelow) {
  auto ws = OneWindow(Snap(1, 10, 10), Snap(2, 25, 25));  // in-delta 15
  EXPECT_TRUE(Evaluate(PortRateAbove("dev", 0, 15), ws));
  EXPECT_FALSE(Evaluate(PortRateAbove("dev", 0, 16), ws));
  EXPECT_FALSE(Evaluate(PortRateBelow("dev", 0, 15), ws));
  EXPECT_TRUE(Evaluate(PortRateBelow("dev", 0, 16), ws));
  EXPECT_FALSE(Evaluate(PortRateAbove("other", 0, 1), ws))
      << "unknown source never fires";
}

TEST(Condition, StallNeedsQuietWatchAndBusyGuard) {
  // Port 0 went quiet while port 1 kept transmitting.
  auto ws = OneWindow(Snap(1, 10, 10, 5, 5), Snap(2, 10, 10, 9, 9));
  Condition stall = PortRateStall("dev", 0, "dev", 1, 4);
  EXPECT_TRUE(Evaluate(stall, ws));
  stall.min_count = 5;  // guard floor not met (out-delta is 4)
  EXPECT_FALSE(Evaluate(stall, ws));
  // Watch port active: no stall.
  auto busy = OneWindow(Snap(1, 10, 10, 5, 5), Snap(2, 12, 12, 9, 9));
  EXPECT_FALSE(Evaluate(PortRateStall("dev", 0, "dev", 1, 4), busy));
}

TEST(Condition, RatioAndStalenessGate) {
  auto ws = OneWindow(Snap(1, 0, 0, 0, 0), Snap(2, 30, 30, 10, 10));
  EXPECT_TRUE(Evaluate(PortRateRatioAbove("dev", 0, "dev", 1, 2.0), ws));
  EXPECT_FALSE(Evaluate(PortRateRatioAbove("dev", 0, "dev", 1, 3.0), ws));
  EXPECT_FALSE(Evaluate(PortRateRatioAbove("dev", 1, "dev", 0, 2.0), ws));
  EXPECT_FALSE(Evaluate(PortRateRatioAbove("dev", 0, "gone", 1, 2.0), ws))
      << "unknown cold source never fires";
  // A stale window holds all fire.
  ws["dev"].MarkStale();
  EXPECT_FALSE(Evaluate(PortRateRatioAbove("dev", 0, "dev", 1, 2.0), ws));
}

// --- plans and the malleable boundary ---------------------------------------

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(dev_.Install(rpc::InstallKind::kBaseP4,
                             controller::designs::BaseP4())
                    .ok());
    auto api = dev_.Api();
    ASSERT_TRUE(api.ok());
    api_ = std::move(api).value();
  }

  daemon::IpsaBackend dev_;
  compiler::ApiSpec api_;
};

TEST_F(PlanTest, MalleableSetGatesTables) {
  Malleable m;
  m.tables.insert("port_map");
  auto ok = PlanBuilder("allowed", api_, m)
                .Add("port_map", "set_if_index", {KeyValue(3)}, {Bits(16, 4)})
                .Compile();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->ops.size(), 1u);
  EXPECT_FALSE(ok->wire_batch.empty());

  auto denied =
      PlanBuilder("denied", api_, m)
          .Add("bridge_vrf", "set_bd_vrf", {KeyValue(1)},
               {Bits(16, 1), Bits(16, 1)})
          .Compile();
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kFailedPrecondition)
      << denied.status().ToString();
}

TEST_F(PlanTest, MalleableSetGatesScriptFunctions) {
  Malleable none;
  auto denied = PlanBuilder("probe", api_, none)
                    .Script(controller::designs::FabricProbeScript(),
                            controller::designs::ResolveSnippet)
                    .Compile();
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kFailedPrecondition);

  Malleable probe;
  probe.functions.insert("fab_probe");
  auto ok = PlanBuilder("probe", api_, probe)
                .Script(controller::designs::FabricProbeScript(),
                        controller::designs::ResolveSnippet)
                .Compile();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->installs.size(), 1u);
  EXPECT_EQ(ok->installs[0].func_name, "fab_probe");

  auto remove = PlanBuilder("probe-off", api_, probe)
                    .Script(controller::designs::FabricProbeRemoveScript(),
                            controller::designs::ResolveSnippet)
                    .Compile();
  ASSERT_TRUE(remove.ok()) << remove.status().ToString();
}

TEST_F(PlanTest, CompileLatchesFirstError) {
  Malleable m;
  m.tables.insert("port_map");
  auto bad = PlanBuilder("bad", api_, m)
                 .Add("port_map", "no_such_action", {KeyValue(1)}, {})
                 .Add("port_map", "set_if_index", {KeyValue(1)}, {Bits(16, 1)})
                 .Compile();
  ASSERT_FALSE(bad.ok());
}

TEST_F(PlanTest, WireBatchIsThePrepackedOps) {
  Malleable m;
  m.tables.insert("port_map");
  auto plan = PlanBuilder("batch", api_, m)
                  .Add("port_map", "set_if_index", {KeyValue(5)}, {Bits(16, 6)})
                  .Modify("port_map", "set_if_index", {KeyValue(5)},
                          {Bits(16, 7)})
                  .Compile();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  wire::Reader r(plan->wire_batch);
  auto decoded = rpc::TableBatchRequest::Decode(r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->ops.size(), 2u);
  // Re-encoding the decoded batch must reproduce the pre-packed payload
  // bit for bit — the wire path sends exactly what was compiled.
  wire::Writer w;
  decoded->Encode(w);
  EXPECT_EQ(w.Take(), plan->wire_batch);
}

// --- reactor engine against a single in-process backend ---------------------

TEST_F(PlanTest, ReactorFiresOncePerWindowAndRespectsMaxFires) {
  telemetry::TelemetryConfig config;
  config.enabled = true;
  dev_.ConfigureTelemetry(config);
  auto add = [this](const std::string& table, const table::Entry& entry) {
    return dev_.ApplyTableOp(rpc::TableOp{
        .op = rpc::TableOpKind::kAdd, .table = table, .entry = entry});
  };
  ASSERT_TRUE(controller::PopulateBaseline(api_, add, {}).ok());

  Reactor reactor;
  ASSERT_TRUE(reactor.AddSource(SourceFromBackend("dev", dev_)).ok());
  Malleable m;
  m.tables.insert("port_map");
  auto plan = PlanBuilder("remap", api_, m)
                  .Add("port_map", "set_if_index", {KeyValue(15)},
                       {Bits(16, 16)})
                  .Compile();
  ASSERT_TRUE(plan.ok());
  auto sink = std::make_shared<BackendSink>(dev_);
  Policy p;
  p.name = "burst";
  p.trigger = PortRateAbove("dev", 0, 3);
  p.fire.push_back(PlanBinding{sink, *plan});
  p.max_fires = 1;
  ASSERT_TRUE(reactor.AddPolicy(std::move(p)).ok());

  auto inject = [this](uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      auto tx = daemon::InjectAndDrain(
          dev_, V4Packet(1 + i, static_cast<uint16_t>(100 + i)), 0);
      ASSERT_TRUE(tx.ok());
    }
  };
  inject(4);
  auto t1 = reactor.Tick();
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1->fired, 0u) << "one snapshot is not a window";
  inject(4);
  auto t2 = reactor.Tick();
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->fired, 1u);
  const PolicyStatus* st = reactor.status("burst");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->fires, 1u);
  EXPECT_EQ(st->state, PolicyStatus::State::kExhausted);
  EXPECT_GT(st->last_detect_to_applied_us, 0.0);
  inject(4);
  auto t3 = reactor.Tick();
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ(t3->fired, 0u) << "max_fires=1 policy must stay exhausted";

  // A tick without fresh traffic: stale-window accounting, no firing.
  auto t4 = reactor.Tick();
  ASSERT_TRUE(t4.ok());
  EXPECT_EQ(t4->fired, 0u);
  EXPECT_EQ(reactor.missed_snapshots(), 0u);
}

// --- the three reference policies, end to end in the fabric ------------------

LeafSpineOptions SmallFabric() {
  LeafSpineOptions options;
  options.leaves = 2;
  options.spines = 2;
  options.hosts_per_leaf = 4;
  options.fabric.shadow_oracle = true;
  return options;
}

TEST(FabricReactor, SpineFailoverReconvergesWithZeroLoss) {
  auto ls = LeafSpine::Create(SmallFabric());
  ASSERT_TRUE(ls.ok()) << ls.status().ToString();
  LeafSpine& fab = **ls;
  auto lsr = MakeLeafSpineReactor(fab);
  ASSERT_TRUE(lsr.ok()) << lsr.status().ToString();
  auto policy = SpineFailoverPolicy(fab, **lsr, /*watch_leaf=*/0,
                                    /*spine=*/0, /*guard_min=*/1);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  Reactor& reactor = (*lsr)->reactor;
  ASSERT_TRUE(reactor.AddPolicy(std::move(*policy)).ok());

  ASSERT_TRUE(fab.fabric().BeginWindow().ok());
  // Healthy rounds: establish the window, verify no spurious firing.
  ASSERT_TRUE(fab.InjectAllPairs(1, 0).ok());
  ASSERT_TRUE(reactor.Tick().ok());
  ASSERT_TRUE(fab.InjectAllPairs(1, 100).ok());
  auto healthy = reactor.Tick();
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy->fired, 0u);

  // Fail the leaf0–spine0 link; the next traffic round shows the stall and
  // the reactor withdraws spine0's buckets on every leaf.
  auto link = fab.SpineLink(0, 0);
  ASSERT_TRUE(link.ok());
  ASSERT_TRUE(fab.fabric().SetLinkUp(*link, false).ok());
  ASSERT_TRUE(fab.InjectAllPairs(1, 200).ok());
  auto reacting = reactor.Tick();
  ASSERT_TRUE(reacting.ok());
  EXPECT_EQ(reacting->fired, 1u);
  const PolicyStatus* st = reactor.status("failover-spine0");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->fires, 1u);
  EXPECT_GT(st->last_detect_to_applied_us, 0.0);

  // Everything so far is accounted (link-down drops are counted, nothing
  // lost), and a post-reconvergence window delivers 100%.
  auto mid = fab.fabric().CheckOracle();
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  EXPECT_TRUE(mid->ok()) << mid->ToString();
  EXPECT_GT(mid->link_down_drops, 0u);

  ASSERT_TRUE(fab.fabric().BeginWindow().ok());
  ASSERT_TRUE(fab.InjectAllPairs(1, 300).ok());
  auto converged = fab.fabric().CheckOracle();
  ASSERT_TRUE(converged.ok());
  EXPECT_TRUE(converged->ok()) << converged->ToString();
  EXPECT_EQ(converged->delivered, converged->injected)
      << "reconverged fabric must deliver everything";
}

TEST(FabricReactor, EcmpRebalanceRestoresBucketOwners) {
  auto ls = LeafSpine::Create(SmallFabric());
  ASSERT_TRUE(ls.ok()) << ls.status().ToString();
  LeafSpine& fab = **ls;

  // Skew leaf0: overwrite spine1's buckets {1,3,5} to spine0 (7/8 of the
  // hash space now lands on uplink 4).
  auto api = fab.fabric().node(fab.LeafNode(0)).Api();
  ASSERT_TRUE(api.ok());
  controller::EntryBuilder builder(*api);
  for (uint32_t b : {1u, 3u, 5u}) {
    auto entry = builder.BuildSelectorMember(
        "fab_ecmp_v4", b, "fab_set_spine",
        {Bits(16, LeafSpine::kL3Bd), MacBits(LeafSpine::SpineMac(0))});
    ASSERT_TRUE(entry.ok());
    ASSERT_TRUE(fab.fabric()
                    .ApplyTableOp(fab.LeafNode(0),
                                  rpc::TableOp{.op = rpc::TableOpKind::kAdd,
                                               .table = "fab_ecmp_v4",
                                               .entry = std::move(*entry)})
                    .ok());
  }

  auto lsr = MakeLeafSpineReactor(fab);
  ASSERT_TRUE(lsr.ok());
  auto policy =
      EcmpRebalancePolicy(fab, **lsr, /*l=*/0, /*hot_spine=*/0,
                          /*cold_spine=*/1, {1, 3, 5}, /*ratio=*/2.0,
                          /*min_count=*/8);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  Reactor& reactor = (*lsr)->reactor;
  ASSERT_TRUE(reactor.AddPolicy(std::move(*policy)).ok());

  ASSERT_TRUE(fab.fabric().BeginWindow().ok());
  ASSERT_TRUE(fab.InjectAllPairs(2, 0).ok());
  ASSERT_TRUE(reactor.Tick().ok());  // seeds the window
  ASSERT_TRUE(fab.InjectAllPairs(2, 100).ok());
  auto skewed = reactor.Tick();
  ASSERT_TRUE(skewed.ok());
  EXPECT_EQ(skewed->fired, 1u) << "7:1 bucket skew must trip ratio 2.0";

  // After the restore plan, traffic spreads again and the policy stays
  // quiet (cooldown tick, then a balanced window).
  ASSERT_TRUE(fab.InjectAllPairs(2, 200).ok());
  ASSERT_TRUE(reactor.Tick().ok());
  ASSERT_TRUE(fab.InjectAllPairs(2, 300).ok());
  auto balanced = reactor.Tick();
  ASSERT_TRUE(balanced.ok());
  EXPECT_EQ(balanced->fired, 0u);
  const PolicyStatus* st = reactor.status("rebalance-leaf0");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->fires, 1u);
  const SourceWindow* w = reactor.window("spine1");
  ASSERT_NE(w, nullptr);
  EXPECT_GT(w->PortIn(0), 0u)
      << "cold spine must receive from leaf0 after the rebalance";

  auto report = fab.fabric().CheckOracle();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToString();
  EXPECT_EQ(report->delivered, report->injected);
}

TEST(FabricReactor, ProbeToggleSplicesAndRemovesInSitu) {
  auto ls = LeafSpine::Create(SmallFabric());
  ASSERT_TRUE(ls.ok()) << ls.status().ToString();
  LeafSpine& fab = **ls;
  auto lsr = MakeLeafSpineReactor(fab);
  ASSERT_TRUE(lsr.ok());
  auto policy = ProbeTogglePolicy(fab, **lsr, /*l=*/0, /*host_port=*/0,
                                  /*on_threshold=*/5, /*off_threshold=*/1);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  Reactor& reactor = (*lsr)->reactor;
  ASSERT_TRUE(reactor.AddPolicy(std::move(*policy)).ok());

  ASSERT_TRUE(fab.fabric().BeginWindow().ok());
  ASSERT_TRUE(fab.InjectAllPairs(1, 0).ok());
  ASSERT_TRUE(reactor.Tick().ok());
  ASSERT_TRUE(fab.InjectAllPairs(1, 100).ok());
  auto burst = reactor.Tick();
  ASSERT_TRUE(burst.ok());
  EXPECT_EQ(burst->fired, 1u) << "host burst must splice the probe";
  const PolicyStatus* st = reactor.status("probe-leaf0");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->state, PolicyStatus::State::kFired);
  EXPECT_GE(st->last_applied_epoch, 2u) << "install must bump the epoch";

  // While spliced, every IPv4 packet through leaf0 is marked.
  ASSERT_TRUE(fab.InjectAllPairs(1, 200).ok());
  auto marked_tick = reactor.Tick();
  ASSERT_TRUE(marked_tick.ok());
  const SourceWindow* w = reactor.window("leaf0");
  ASSERT_NE(w, nullptr);
  ASSERT_NE(w->port(0), nullptr);
  EXPECT_GT(w->port(0)->packets_marked, 0u)
      << "probe stage must mark while resident";

  // Quiet window: the clear condition removes the stage in-situ.
  auto quiet = reactor.Tick();
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(quiet->cleared, 1u);
  EXPECT_EQ(reactor.status("probe-leaf0")->clears, 1u);

  // Post-removal traffic is no longer marked, and the books balance across
  // both in-situ updates.
  ASSERT_TRUE(fab.InjectAllPairs(1, 300).ok());
  ASSERT_TRUE(reactor.Tick().ok());
  w = reactor.window("leaf0");
  ASSERT_NE(w->port(0), nullptr);
  EXPECT_EQ(w->port(0)->packets_marked, 0u)
      << "removed stage must stop marking";

  auto report = fab.fabric().CheckOracle();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToString();
  EXPECT_EQ(report->delivered, report->injected)
      << "the probe toggle must not change forwarding";
}

}  // namespace
}  // namespace ipsa::reactor
