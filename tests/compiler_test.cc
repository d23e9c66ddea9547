#include <gtest/gtest.h>

#include "compiler/layout.h"
#include "compiler/linearize.h"
#include "compiler/pisa_backend.h"
#include "compiler/rp4bc.h"
#include "compiler/rp4fc.h"
#include "compiler/table_alloc.h"
#include "controller/designs.h"
#include "controller/script.h"
#include "p4lite/parser.h"
#include "rp4/parser.h"
#include "rp4/printer.h"

namespace ipsa::compiler {
namespace {

rp4::Rp4Program BaseProgram() {
  auto hlir = p4lite::ParseP4(controller::designs::BaseP4());
  EXPECT_TRUE(hlir.ok());
  auto fc = RunRp4fc(*hlir);
  EXPECT_TRUE(fc.ok());
  return fc->program;
}

// --- linearize ------------------------------------------------------------------

TEST(LinearizeTest, BaseIngressStageShapes) {
  auto hlir = p4lite::ParseP4(controller::designs::BaseP4());
  ASSERT_TRUE(hlir.ok());
  auto stages = LinearizeControl(hlir->ingress, "ig");
  ASSERT_TRUE(stages.ok()) << stages.status().ToString();
  // port_map, bridge_vrf, l2_l3, host chain, lpm chain, nexthop.
  ASSERT_EQ(stages->size(), 6u);
  EXPECT_EQ((*stages)[0].name, "port_map");
  EXPECT_EQ((*stages)[3].name, "ipv4_host");
  // The v4/v6 chains flatten into one stage with two guarded rules.
  EXPECT_EQ((*stages)[3].matcher.size(), 2u);
  EXPECT_EQ((*stages)[3].matcher[1].table, "ipv6_host");
  EXPECT_EQ((*stages)[5].name, "nexthop");
  // nexthop runs under the path condition l3==1.
  EXPECT_NE((*stages)[5].matcher[0].guard, nullptr);
}

TEST(LinearizeTest, ExecutorTagsFollowActionLists) {
  auto hlir = p4lite::ParseP4(controller::designs::BaseP4());
  ASSERT_TRUE(hlir.ok());
  auto stages = LinearizeControl(hlir->ingress, "ig");
  ASSERT_TRUE(stages.ok());
  // The FIB stages' executor maps set_nexthop at tag 1 (first non-NoAction).
  const arch::StageProgram& lpm = (*stages)[4];
  ASSERT_EQ(lpm.executor.size(), 1u);
  EXPECT_EQ(lpm.executor.at(1), "set_nexthop");
}

TEST(LinearizeTest, ParseSetsComputed) {
  rp4::Rp4Program program = BaseProgram();
  const arch::StageProgram* lpm = program.FindStage("ipv4_lpm");
  ASSERT_NE(lpm, nullptr);
  // Guards read ipv4/ipv6 validity and keys read dst addresses.
  EXPECT_NE(std::find(lpm->parse_set.begin(), lpm->parse_set.end(), "ipv4"),
            lpm->parse_set.end());
  EXPECT_NE(std::find(lpm->parse_set.begin(), lpm->parse_set.end(), "ipv6"),
            lpm->parse_set.end());
  const arch::StageProgram* port_map = program.FindStage("port_map");
  ASSERT_NE(port_map, nullptr);
  EXPECT_TRUE(port_map->parse_set.empty());  // pure-metadata stage
}

// --- rp4fc -----------------------------------------------------------------------

TEST(Rp4fcTest, EmitsReparsableRp4) {
  auto hlir = p4lite::ParseP4(controller::designs::BaseP4());
  ASSERT_TRUE(hlir.ok());
  auto fc = RunRp4fc(*hlir);
  ASSERT_TRUE(fc.ok()) << fc.status().ToString();
  std::string text = rp4::PrintRp4(fc->program);
  auto reparsed = rp4::ParseRp4(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->tables.size(), fc->program.tables.size());
  EXPECT_EQ(reparsed->ingress_stages.size(),
            fc->program.ingress_stages.size());
}

TEST(Rp4fcTest, ApiSpecCoversAllTables) {
  auto hlir = p4lite::ParseP4(controller::designs::BaseP4());
  ASSERT_TRUE(hlir.ok());
  auto fc = RunRp4fc(*hlir);
  ASSERT_TRUE(fc.ok());
  for (const auto& t : fc->program.tables) {
    const TableApi* api = fc->api.Find(t.name);
    ASSERT_NE(api, nullptr) << t.name;
    EXPECT_EQ(api->key_fields.size(), t.key.size());
    for (uint32_t w : api->key_field_widths) EXPECT_GT(w, 0u) << t.name;
  }
  // dmac's set_port gets a stable tag.
  const TableApi* dmac = fc->api.Find("dmac");
  ASSERT_NE(dmac, nullptr);
  ASSERT_TRUE(dmac->actions.count("set_port"));
  EXPECT_EQ(dmac->actions.at("set_port").second,
            (std::vector<uint32_t>{9}));
}

TEST(Rp4fcTest, ApiSpecJsonSerializes) {
  auto hlir = p4lite::ParseP4(controller::designs::BaseP4());
  ASSERT_TRUE(hlir.ok());
  auto fc = RunRp4fc(*hlir);
  ASSERT_TRUE(fc.ok());
  auto parsed = util::Json::Parse(fc->api.ToJson().Dump(2));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Find("ipv4_lpm") != nullptr);
}

// --- table allocation ----------------------------------------------------------------

TEST(TableAllocTest, GreedyPacksFeasible) {
  std::vector<AllocRequest> requests{
      {"a", mem::BlockKind::kSram, 4, std::nullopt},
      {"b", mem::BlockKind::kSram, 3, std::nullopt},
      {"c", mem::BlockKind::kTcam, 2, std::nullopt},
  };
  std::vector<ClusterCapacity> clusters{{4, 2}, {4, 2}};
  auto plan = SolveTableAllocation(requests, clusters, SolveMode::kGreedy);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->feasible);
  EXPECT_EQ(plan->table_cluster.size(), 3u);
  // a (4 blocks) and b (3 blocks) cannot share a 4-block cluster.
  EXPECT_NE(plan->table_cluster.at("a"), plan->table_cluster.at("b"));
}

TEST(TableAllocTest, ExactBalancesBetterOrEqual) {
  std::vector<AllocRequest> requests{
      {"a", mem::BlockKind::kSram, 3, std::nullopt},
      {"b", mem::BlockKind::kSram, 3, std::nullopt},
      {"c", mem::BlockKind::kSram, 2, std::nullopt},
      {"d", mem::BlockKind::kSram, 2, std::nullopt},
  };
  std::vector<ClusterCapacity> clusters{{5, 0}, {5, 0}};
  auto exact = SolveTableAllocation(requests, clusters, SolveMode::kExact);
  auto greedy = SolveTableAllocation(requests, clusters, SolveMode::kGreedy);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(greedy.ok());
  EXPECT_LE(exact->max_utilization_pct, greedy->max_utilization_pct);
  // Optimal: 3+2 per cluster = 100%... both are 100% here; use a looser
  // instance to see the difference below.
}

TEST(TableAllocTest, RequiredClusterRespected) {
  std::vector<AllocRequest> requests{
      {"pinned", mem::BlockKind::kSram, 2, 1},
  };
  std::vector<ClusterCapacity> clusters{{8, 0}, {8, 0}};
  for (SolveMode mode : {SolveMode::kExact, SolveMode::kGreedy}) {
    auto plan = SolveTableAllocation(requests, clusters, mode);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->table_cluster.at("pinned"), 1u);
  }
}

TEST(TableAllocTest, InfeasibleReported) {
  std::vector<AllocRequest> requests{
      {"huge", mem::BlockKind::kSram, 100, std::nullopt},
  };
  std::vector<ClusterCapacity> clusters{{8, 0}};
  EXPECT_FALSE(
      SolveTableAllocation(requests, clusters, SolveMode::kGreedy).ok());
  EXPECT_FALSE(
      SolveTableAllocation(requests, clusters, SolveMode::kExact).ok());
}

TEST(TableAllocTest, ExactFindsPackingGreedyMisses) {
  // First-fit-decreasing puts the two 3s in separate clusters and then the
  // three 2s can't all fit; exact search finds 3+3 | 2+2+2.
  std::vector<AllocRequest> requests{
      {"a", mem::BlockKind::kSram, 3, std::nullopt},
      {"b", mem::BlockKind::kSram, 3, std::nullopt},
      {"c", mem::BlockKind::kSram, 2, std::nullopt},
      {"d", mem::BlockKind::kSram, 2, std::nullopt},
      {"e", mem::BlockKind::kSram, 2, std::nullopt},
  };
  std::vector<ClusterCapacity> clusters{{6, 0}, {6, 0}};
  auto exact = SolveTableAllocation(requests, clusters, SolveMode::kExact);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_TRUE(exact->feasible);
}

// --- layout ------------------------------------------------------------------------

LayoutGroup Group(const std::string& name, int32_t old_tsp,
                  ipbm::TspRole role = ipbm::TspRole::kIngress) {
  LayoutGroup g;
  g.stages = {name};
  g.old_tsp = old_tsp;
  g.role = role;
  return g;
}

TEST(LayoutTest, DpKeepsExistingPlacements) {
  // Insert a new group between two placed ones; DP keeps both old groups.
  std::vector<LayoutGroup> groups{Group("a", 0), Group("new", -1),
                                  Group("b", 2)};
  auto result = PlaceGroups(groups, 8, LayoutMode::kDp);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->relocations, 1u);  // only the new group
  EXPECT_EQ(result->assignments[0].tsp_id, 0u);
  EXPECT_EQ(result->assignments[1].tsp_id, 1u);
  EXPECT_EQ(result->assignments[2].tsp_id, 2u);
}

TEST(LayoutTest, GreedyMayRelocateWhereDpDoesNot) {
  // Old layout: a@0, b@1. A new stage must go between them. Greedy pushes
  // b to slot 2 (relocation); DP also must (no free slot between), but when
  // b is at 3 DP keeps it while greedy still takes slot 2.
  std::vector<LayoutGroup> groups{Group("a", 0), Group("new", -1),
                                  Group("b", 3)};
  auto dp = PlaceGroups(groups, 8, LayoutMode::kDp);
  auto greedy = PlaceGroups(groups, 8, LayoutMode::kGreedy);
  ASSERT_TRUE(dp.ok());
  ASSERT_TRUE(greedy.ok());
  EXPECT_EQ(dp->relocations, 1u);
  EXPECT_EQ(greedy->relocations, 1u);  // greedy also keeps b@3 here
  // A case where greedy is strictly worse: two new stages, b close by.
  std::vector<LayoutGroup> tight{Group("a", 0), Group("n1", -1),
                                 Group("n2", -1), Group("b", 2)};
  auto dp2 = PlaceGroups(tight, 8, LayoutMode::kDp);
  auto greedy2 = PlaceGroups(tight, 8, LayoutMode::kGreedy);
  ASSERT_TRUE(dp2.ok());
  ASSERT_TRUE(greedy2.ok());
  EXPECT_EQ(greedy2->relocations, 3u);  // n1, n2, and b moved
  EXPECT_EQ(dp2->relocations, 3u);      // b must move regardless here
  EXPECT_GE(greedy2->relocations, dp2->relocations);
}

TEST(LayoutTest, CapacityExhaustion) {
  std::vector<LayoutGroup> groups;
  for (int i = 0; i < 5; ++i) groups.push_back(Group("g" + std::to_string(i), -1));
  EXPECT_FALSE(PlaceGroups(groups, 4, LayoutMode::kDp).ok());
  EXPECT_FALSE(PlaceGroups(groups, 4, LayoutMode::kGreedy).ok());
}

TEST(LayoutTest, RoleOrderEnforced) {
  std::vector<LayoutGroup> groups{Group("e", -1, ipbm::TspRole::kEgress),
                                  Group("i", -1, ipbm::TspRole::kIngress)};
  EXPECT_FALSE(PlaceGroups(groups, 8, LayoutMode::kDp).ok());
}

// --- rp4bc base compile ----------------------------------------------------------------

TEST(Rp4bcTest, BaseCompileProducesLayoutAndTemplates) {
  rp4::Rp4Program program = BaseProgram();
  Rp4bcOptions options;
  auto result = CompileBase(program, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->layout.assignments.empty());
  EXPECT_TRUE(result->alloc.feasible);
  // Every stage appears in exactly one TSP.
  std::map<std::string, int> seen;
  for (const auto& a : result->layout.assignments) {
    for (const auto& s : a.stage_names) seen[s]++;
  }
  for (const auto& s : result->design.StageNames()) {
    EXPECT_EQ(seen[s], 1) << s;
  }
  // Ingress TSPs precede egress TSPs.
  uint32_t max_ingress = 0, min_egress = UINT32_MAX;
  for (const auto& a : result->layout.assignments) {
    if (a.role == ipbm::TspRole::kIngress) {
      max_ingress = std::max(max_ingress, a.tsp_id);
    } else {
      min_egress = std::min(min_egress, a.tsp_id);
    }
  }
  EXPECT_LT(max_ingress, min_egress);
  // Templates JSON parses back.
  auto parsed = util::Json::Parse(result->templates_json.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->is_array());
}

TEST(Rp4bcTest, MergeDisabledUsesMoreTsps) {
  rp4::Rp4Program program = BaseProgram();
  Rp4bcOptions merged;
  merged.merge_stages = true;
  Rp4bcOptions unmerged;
  unmerged.merge_stages = false;
  auto with_merge = CompileBase(program, merged);
  auto without = CompileBase(program, unmerged);
  ASSERT_TRUE(with_merge.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_LE(with_merge->layout.assignments.size(),
            without->layout.assignments.size());
}

TEST(Rp4bcTest, StageIndependenceAnalysis) {
  rp4::Rp4Program program = BaseProgram();
  auto design = rp4::LowerToDesign(program);
  ASSERT_TRUE(design.ok());
  const arch::StageProgram* port_map = design->FindStage("port_map");
  const arch::StageProgram* bridge_vrf = design->FindStage("bridge_vrf");
  const arch::StageProgram* host = design->FindStage("ipv4_host");
  const arch::StageProgram* lpm = design->FindStage("ipv4_lpm");
  ASSERT_TRUE(port_map && bridge_vrf && host && lpm);
  // port_map writes if_index which bridge_vrf reads: dependent.
  EXPECT_FALSE(StagesIndependent(*design, *port_map, *bridge_vrf));
  // host and lpm both write meta.nexthop: write-write conflict.
  EXPECT_FALSE(StagesIndependent(*design, *host, *lpm));
  // port_map and the host FIB chain touch disjoint state.
  EXPECT_TRUE(StagesIndependent(*design, *port_map, *host));
}

// --- rp4bc incremental -------------------------------------------------------------------

class UpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    program_ = BaseProgram();
    auto compiled = CompileBase(program_, options_);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    layout_ = compiled->layout;
  }

  Result<UpdateRequest> Request(const std::string& script) {
    return controller::ParseScript(script,
                                   controller::designs::ResolveSnippet);
  }

  rp4::Rp4Program program_;
  Rp4bcOptions options_;
  TspLayout layout_;
};

TEST_F(UpdateTest, EcmpPlanShape) {
  auto request = Request(controller::designs::EcmpScript());
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  auto plan = CompileUpdate(program_, layout_, *request, options_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // The nexthop stage is replaced by ecmp (Fig. 4: K,L replace H).
  EXPECT_EQ(plan->updated_design.FindStage("nexthop"), nullptr);
  EXPECT_NE(plan->updated_design.FindStage("ecmp"), nullptr);
  // Plan creates the two selector tables and destroys the orphaned nexthop
  // table.
  int creates = 0, destroys = 0, writes = 0;
  for (const auto& op : plan->ops) {
    if (op.kind == DeviceOp::Kind::kCreateTable) ++creates;
    if (op.kind == DeviceOp::Kind::kDestroyTable) ++destroys;
    if (op.kind == DeviceOp::Kind::kWriteTemplate) ++writes;
  }
  EXPECT_EQ(creates, 2);
  EXPECT_EQ(destroys, 1);
  EXPECT_GE(writes, 1);
  // The new function is registered.
  EXPECT_NE(plan->updated_program.FindFunc("ecmp"), nullptr);
}

TEST_F(UpdateTest, EcmpThenRemoveRoundTrips) {
  auto load = Request(controller::designs::EcmpScript());
  ASSERT_TRUE(load.ok());
  auto plan = CompileUpdate(program_, layout_, *load, options_);
  ASSERT_TRUE(plan.ok());
  auto remove = Request(controller::designs::EcmpRemoveScript());
  ASSERT_TRUE(remove.ok());
  auto plan2 = CompileUpdate(plan->updated_program, plan->updated_layout,
                             *remove, options_);
  ASSERT_TRUE(plan2.ok()) << plan2.status().ToString();
  EXPECT_EQ(plan2->updated_design.FindStage("ecmp"), nullptr);
  EXPECT_EQ(plan2->updated_program.FindFunc("ecmp"), nullptr);
  // ECMP tables destroyed on removal.
  int destroys = 0;
  for (const auto& op : plan2->ops) {
    if (op.kind == DeviceOp::Kind::kDestroyTable) ++destroys;
  }
  EXPECT_EQ(destroys, 2);
}

// An update lowers its program once and takes what it destroys out of that
// design; the result must equal lowering the updated program afresh, for
// every use case's insert and remove.
TEST_F(UpdateTest, UpdatedDesignEqualsLoweringTheUpdatedProgram) {
  const std::pair<std::string, std::string> cases[] = {
      {controller::designs::EcmpScript(),
       controller::designs::EcmpRemoveScript()},
      {controller::designs::Srv6Script(), "remove --func_name srv6\n"},
      {controller::designs::ProbeScript(),
       controller::designs::ProbeRemoveScript()},
  };
  for (const auto& [insert, remove] : cases) {
    SCOPED_TRACE(insert);
    auto load = Request(insert);
    ASSERT_TRUE(load.ok()) << load.status().ToString();
    auto plan = CompileUpdate(program_, layout_, *load, options_);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto relowered = rp4::LowerToDesign(plan->updated_program);
    ASSERT_TRUE(relowered.ok());
    EXPECT_EQ(plan->updated_design.ToJson().Dump(),
              relowered->ToJson().Dump());

    auto unload = Request(remove);
    ASSERT_TRUE(unload.ok()) << unload.status().ToString();
    auto plan2 = CompileUpdate(plan->updated_program, plan->updated_layout,
                               *unload, options_);
    ASSERT_TRUE(plan2.ok()) << plan2.status().ToString();
    auto relowered2 = rp4::LowerToDesign(plan2->updated_program);
    ASSERT_TRUE(relowered2.ok());
    EXPECT_EQ(plan2->updated_design.ToJson().Dump(),
              relowered2->ToJson().Dump());
  }
}

TEST_F(UpdateTest, Srv6PlanAddsHeaderAndLinks) {
  auto request = Request(controller::designs::Srv6Script());
  ASSERT_TRUE(request.ok());
  auto plan = CompileUpdate(program_, layout_, *request, options_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  int add_headers = 0, links = 0;
  for (const auto& op : plan->ops) {
    if (op.kind == DeviceOp::Kind::kAddHeader) ++add_headers;
    if (op.kind == DeviceOp::Kind::kLinkHeader) ++links;
  }
  EXPECT_EQ(add_headers, 1);
  EXPECT_EQ(links, 3);  // ipv6->srh, srh->ipv6, srh->ipv4
  // srv6 inserted between l2_l3 and the FIB.
  const auto& ingress = plan->updated_design.ingress_stages;
  auto idx_of = [&](std::string_view name) -> int {
    for (size_t i = 0; i < ingress.size(); ++i) {
      if (ingress[i].name == name) return static_cast<int>(i);
    }
    return -1;
  };
  EXPECT_LT(idx_of("l2_l3"), idx_of("srv6"));
  EXPECT_LT(idx_of("srv6"), idx_of("ipv4_host"));
}

TEST_F(UpdateTest, DpLayoutNeverWorseThanGreedy) {
  for (const std::string& script : {controller::designs::EcmpScript(),
                                    controller::designs::Srv6Script(),
                                    controller::designs::ProbeScript()}) {
    auto request = Request(script);
    ASSERT_TRUE(request.ok());
    Rp4bcOptions dp_opts = options_;
    dp_opts.layout_mode = LayoutMode::kDp;
    Rp4bcOptions greedy_opts = options_;
    greedy_opts.layout_mode = LayoutMode::kGreedy;
    auto dp = CompileUpdate(program_, layout_, *request, dp_opts);
    auto greedy = CompileUpdate(program_, layout_, *request, greedy_opts);
    ASSERT_TRUE(dp.ok());
    ASSERT_TRUE(greedy.ok());
    EXPECT_LE(dp->relocations, greedy->relocations);
  }
}

TEST_F(UpdateTest, UnknownStageLinkRejected) {
  UpdateRequest request;
  request.func_name = "x";
  request.snippet = rp4::Rp4Program{};
  request.add_links.emplace_back("no_such_stage", "also_missing");
  EXPECT_FALSE(CompileUpdate(program_, layout_, request, options_).ok());
}

TEST_F(UpdateTest, RemoveUnknownFunctionRejected) {
  UpdateRequest request;
  request.func_name = "ghost";
  request.remove = true;
  EXPECT_FALSE(CompileUpdate(program_, layout_, request, options_).ok());
}

TEST_F(UpdateTest, SnippetNameCollisionsRejectedAtCompileTime) {
  // A snippet redefining an existing table/action must fail in rp4bc, never
  // halfway through device application.
  auto snippet = rp4::ParseRp4Snippet(R"(
action set_nexthop(bit<16> nexthop) { meta.nexthop = nexthop; }
stage dup { parser { } matcher { } executor { default: NoAction; } }
)");
  ASSERT_TRUE(snippet.ok());
  UpdateRequest request;
  request.func_name = "dup";
  request.snippet = *snippet;
  auto plan = CompileUpdate(program_, layout_, request, options_);
  EXPECT_EQ(plan.status().code(), StatusCode::kAlreadyExists);

  auto stage_dup = rp4::ParseRp4Snippet(R"(
stage nexthop { parser { } matcher { } executor { default: NoAction; } }
)");
  ASSERT_TRUE(stage_dup.ok());
  request.snippet = *stage_dup;
  EXPECT_EQ(CompileUpdate(program_, layout_, request, options_)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(UpdateTest, TspExhaustionRejected) {
  // With barely enough TSPs for the base design, inserting a new stage that
  // cannot merge must fail cleanly.
  Rp4bcOptions tight = options_;
  tight.tsp_count = 6;  // base needs exactly 6 groups with merging
  auto compiled = CompileBase(program_, tight);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto request = Request(controller::designs::ProbeScript());
  ASSERT_TRUE(request.ok());
  auto plan = CompileUpdate(program_, compiled->layout, *request, tight);
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(UpdateTest, ReloadAfterRemoveWorks) {
  // load ecmp -> remove ecmp -> load ecmp again: the function registry and
  // layout must round-trip.
  auto load = Request(controller::designs::EcmpScript());
  ASSERT_TRUE(load.ok());
  auto plan1 = CompileUpdate(program_, layout_, *load, options_);
  ASSERT_TRUE(plan1.ok());
  auto remove = Request(controller::designs::EcmpRemoveScript());
  ASSERT_TRUE(remove.ok());
  auto plan2 = CompileUpdate(plan1->updated_program, plan1->updated_layout,
                             *remove, options_);
  ASSERT_TRUE(plan2.ok());

  // Re-link ecmp where nexthop used to be. After removal the pipeline is
  // ...ipv4_lpm -> l2_l3_rewrite..., so the reload script differs from the
  // original (no nexthop to unlink).
  const std::string reload_script = R"(
load ecmp.rp4 --func_name ecmp
add_link ipv4_lpm ecmp
add_link ecmp l2_l3_rewrite
del_link ipv4_lpm l2_l3_rewrite
)";
  auto reload = controller::ParseScript(reload_script,
                                        controller::designs::ResolveSnippet);
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  auto plan3 = CompileUpdate(plan2->updated_program, plan2->updated_layout,
                             *reload, options_);
  ASSERT_TRUE(plan3.ok()) << plan3.status().ToString();
  EXPECT_NE(plan3->updated_design.FindStage("ecmp"), nullptr);
  EXPECT_NE(plan3->updated_program.FindFunc("ecmp"), nullptr);
}

TEST_F(UpdateTest, InsertionSplitsMergedTspGroup) {
  // bridge_vrf and l2_l3 share one TSP in the base layout (independent
  // stages merged by rp4bc). Splicing a new stage BETWEEN them must split
  // the group across TSPs while keeping pipeline order.
  const std::string script = R"(
load probe.rp4 --func_name probe
add_link bridge_vrf flow_probe
add_link flow_probe l2_l3
del_link bridge_vrf l2_l3
)";
  // Preconditions: they indeed share a TSP.
  std::map<std::string, uint32_t> old_map;
  for (const auto& a : layout_.assignments) {
    for (const auto& s : a.stage_names) old_map[s] = a.tsp_id;
  }
  ASSERT_EQ(old_map.at("bridge_vrf"), old_map.at("l2_l3"));

  auto request =
      controller::ParseScript(script, controller::designs::ResolveSnippet);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  auto plan = CompileUpdate(program_, layout_, *request, options_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  std::map<std::string, uint32_t> new_map;
  for (const auto& a : plan->updated_layout.assignments) {
    for (const auto& s : a.stage_names) new_map[s] = a.tsp_id;
  }
  EXPECT_LT(new_map.at("bridge_vrf"), new_map.at("flow_probe"));
  EXPECT_LT(new_map.at("flow_probe"), new_map.at("l2_l3"));
  // And the updated design's ingress order matches.
  std::vector<std::string> order;
  for (const auto& s : plan->updated_design.ingress_stages) {
    order.push_back(s.name);
  }
  auto pos = [&order](std::string_view n) {
    return std::find(order.begin(), order.end(), n) - order.begin();
  };
  EXPECT_LT(pos("bridge_vrf"), pos("flow_probe"));
  EXPECT_LT(pos("flow_probe"), pos("l2_l3"));
}

TEST_F(UpdateTest, InPlaceUpdatePlanIsMinimal) {
  // load probe, then update to v2: the plan must contain exactly one
  // template write (the probe's TSP), the replaced action, and nothing
  // structural.
  auto load = Request(controller::designs::ProbeScript());
  ASSERT_TRUE(load.ok());
  auto plan1 = CompileUpdate(program_, layout_, *load, options_);
  ASSERT_TRUE(plan1.ok());
  auto update = Request(controller::designs::ProbeUpdateScript());
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(update->update);
  auto plan2 = CompileUpdate(plan1->updated_program, plan1->updated_layout,
                             *update, options_);
  ASSERT_TRUE(plan2.ok()) << plan2.status().ToString();
  int writes = 0, action_swaps = 0, structural = 0;
  for (const auto& op : plan2->ops) {
    switch (op.kind) {
      case DeviceOp::Kind::kWriteTemplate:
        ++writes;
        break;
      case DeviceOp::Kind::kRemoveAction:
      case DeviceOp::Kind::kAddAction:
        ++action_swaps;
        break;
      default:
        ++structural;
    }
  }
  EXPECT_EQ(writes, 1);
  EXPECT_EQ(action_swaps, 2);  // remove + re-add probe_count
  EXPECT_EQ(structural, 0);
  EXPECT_EQ(plan2->relocations, 0u);
  // Layout is bit-identical.
  EXPECT_EQ(plan2->updated_layout.assignments.size(),
            plan1->updated_layout.assignments.size());
}

TEST_F(UpdateTest, InPlaceUpdateRejectsStructuralChanges) {
  auto load = Request(controller::designs::ProbeScript());
  ASSERT_TRUE(load.ok());
  auto plan1 = CompileUpdate(program_, layout_, *load, options_);
  ASSERT_TRUE(plan1.ok());
  // An "update" whose stage is not part of the function is rejected.
  auto foreign = rp4::ParseRp4Snippet(
      "stage nexthop { parser { } matcher { } "
      "executor { default: NoAction; } }");
  ASSERT_TRUE(foreign.ok());
  UpdateRequest bad;
  bad.func_name = "probe";
  bad.update = true;
  bad.snippet = *foreign;
  EXPECT_FALSE(CompileUpdate(plan1->updated_program, plan1->updated_layout,
                             bad, options_)
                   .ok());
  // Updating a function that isn't loaded fails too.
  UpdateRequest ghost;
  ghost.func_name = "ghost";
  ghost.update = true;
  ghost.snippet = *foreign;
  EXPECT_EQ(CompileUpdate(program_, layout_, ghost, options_)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(RefinePlacementTest, DeterministicAndMonotone) {
  auto hlir = p4lite::ParseP4(controller::designs::BaseP4());
  ASSERT_TRUE(hlir.ok());
  auto fc = RunRp4fc(*hlir);
  ASSERT_TRUE(fc.ok());
  auto design = rp4::LowerToDesign(fc->program);
  ASSERT_TRUE(design.ok());
  uint64_t c1 = RefinePlacement(*design, 5);
  uint64_t c2 = RefinePlacement(*design, 5);
  EXPECT_EQ(c1, c2);  // deterministic
  uint64_t c_more = RefinePlacement(*design, 50);
  EXPECT_LE(c_more, c1);  // more rounds never worsen the accepted cost
}

// --- PISA backend ---------------------------------------------------------------------

TEST(PisaBackendTest, CompilesBaseWithinStageBudget) {
  auto hlir = p4lite::ParseP4(controller::designs::BaseP4());
  ASSERT_TRUE(hlir.ok());
  PisaBackendOptions options;
  auto result = RunPisaBackend(*hlir, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->design.ingress_stages.size(),
            options.physical_ingress_stages);
  EXPECT_TRUE(result->alloc.feasible);
}

TEST(PisaBackendTest, RejectsWhenTooManyStages) {
  auto hlir = p4lite::ParseP4(controller::designs::BaseP4());
  ASSERT_TRUE(hlir.ok());
  PisaBackendOptions options;
  options.physical_ingress_stages = 2;  // base needs 6
  EXPECT_EQ(RunPisaBackend(*hlir, options).status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace ipsa::compiler
