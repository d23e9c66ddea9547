// Ablations over the design choices DESIGN.md calls out:
//  A1  stage merging on/off           -> TSPs used by the base design
//  A2  incremental layout: DP vs greedy -> relocations and search work
//  A3  table packing: exact vs greedy   -> pool balance and solver effort
//  A4  clustered vs full crossbar       -> silicon cost vs placement freedom
#include <cstdio>

#include "bench/common.h"
#include "compiler/rp4fc.h"
#include "compiler/table_alloc.h"
#include "hw/models.h"
#include "controller/script.h"
#include "p4lite/parser.h"
#include "util/clock.h"

namespace ipsa::bench {
namespace {

Result<rp4::Rp4Program> BaseProgram() {
  IPSA_ASSIGN_OR_RETURN(p4lite::Hlir hlir,
                        p4lite::ParseP4(controller::designs::BaseP4()));
  IPSA_ASSIGN_OR_RETURN(compiler::Rp4fcResult fc, compiler::RunRp4fc(hlir));
  return fc.program;
}

Status A1_StageMerge(const rp4::Rp4Program& program) {
  std::printf("A1: predicate-based stage merging (rp4bc, Sec.3.2)\n");
  std::printf("%-24s %10s %14s\n", "mode", "TSPs used", "logical stages");
  for (bool merge : {true, false}) {
    compiler::Rp4bcOptions options;
    options.merge_stages = merge;
    IPSA_ASSIGN_OR_RETURN(compiler::Rp4bcResult result,
                          compiler::CompileBase(program, options));
    size_t stages = result.design.StageNames().size();
    std::printf("%-24s %10zu %14zu\n", merge ? "merge on" : "merge off",
                result.layout.assignments.size(), stages);
  }
  std::printf("\n");
  return OkStatus();
}

Status A2_LayoutModes(const rp4::Rp4Program& program) {
  std::printf(
      "A2: incremental layout optimizer, DP vs greedy "
      "(placement time vs optimization tradeoff, Sec.3.2)\n");
  std::printf("%-10s %-8s %12s %12s %12s\n", "use case", "mode",
              "relocations", "work units", "compile us");
  compiler::Rp4bcOptions base_options;
  IPSA_ASSIGN_OR_RETURN(compiler::Rp4bcResult compiled,
                        compiler::CompileBase(program, base_options));
  const UseCase cases[] = {UseCase::kEcmp, UseCase::kSrv6, UseCase::kProbe};
  for (UseCase uc : cases) {
    IPSA_ASSIGN_OR_RETURN(
        compiler::UpdateRequest request,
        controller::ParseScript(ScriptFor(uc),
                                controller::designs::ResolveSnippet));
    for (auto mode :
         {compiler::LayoutMode::kDp, compiler::LayoutMode::kGreedy}) {
      compiler::Rp4bcOptions options;
      options.layout_mode = mode;
      util::Stopwatch clock;
      IPSA_ASSIGN_OR_RETURN(
          compiler::UpdatePlan plan,
          compiler::CompileUpdate(program, compiled.layout, request,
                                  options));
      std::printf("%-10s %-8s %12u %12llu %12.1f\n", UseCaseName(uc),
                  mode == compiler::LayoutMode::kDp ? "dp" : "greedy",
                  plan.relocations,
                  static_cast<unsigned long long>(plan.layout_work_units),
                  clock.ElapsedMicros());
    }
  }
  std::printf("\n");
  return OkStatus();
}

Status A3_PackingSolver() {
  std::printf("A3: memory-pool set packing, exact (IP-style B&B) vs greedy\n");
  std::printf("%-10s %16s %16s %14s\n", "mode", "max util (%)",
              "nodes explored", "solve us");
  // A tight instance: 12 tables over 4 clusters.
  std::vector<compiler::AllocRequest> requests;
  for (int i = 0; i < 12; ++i) {
    requests.push_back(compiler::AllocRequest{
        "t" + std::to_string(i), mem::BlockKind::kSram,
        static_cast<uint32_t>(2 + (i * 7) % 5), std::nullopt});
  }
  std::vector<compiler::ClusterCapacity> clusters(4, {14, 4});
  for (auto mode :
       {compiler::SolveMode::kExact, compiler::SolveMode::kGreedy}) {
    util::Stopwatch clock;
    IPSA_ASSIGN_OR_RETURN(
        compiler::AllocPlan plan,
        compiler::SolveTableAllocation(requests, clusters, mode, 500000));
    std::printf("%-10s %16u %16llu %14.1f\n",
                mode == compiler::SolveMode::kExact ? "exact" : "greedy",
                plan.max_utilization_pct,
                static_cast<unsigned long long>(plan.nodes_explored),
                clock.ElapsedMicros());
  }
  std::printf("\n");
  return OkStatus();
}

Status A4_CrossbarKinds(const rp4::Rp4Program& program) {
  std::printf("A4: full vs clustered crossbar (flexibility/cost, Sec.2.4)\n");
  std::printf("%-12s %14s %16s\n", "clusters", "xbar LUT (%)",
              "base compiles?");
  for (uint32_t clusters : {1u, 2u, 4u}) {
    compiler::Rp4bcOptions options;
    options.clusters = clusters;
    auto result = compiler::CompileBase(program, options);
    hw::IpsaHwConfig hw_cfg{8, 8, clusters};
    std::printf("%-12u %13.2f%% %16s\n", clusters,
                hw::IpsaResources(hw_cfg).crossbar.lut_pct,
                result.ok() ? "yes" : result.status().ToString().c_str());
  }
  std::printf("\n");
  return OkStatus();
}

Status A5_ParallelPipelines(const rp4::Rp4Program& program) {
  // §5 discussion, point (1): a multi-pipeline PISA chip replicates most
  // tables per pipeline, dividing effective table storage; IPSA's
  // disaggregated pool serves every pipeline from one copy through extra
  // memory ports.
  std::printf("A5: parallel pipelines and table replication "
              "(Sec.5 discussion)\n");
  IPSA_ASSIGN_OR_RETURN(arch::DesignConfig design,
                        rp4::LowerToDesign(program));
  compiler::Rp4bcOptions geometry;  // pool geometry defaults
  uint64_t blocks_per_copy = 0;
  for (const auto& t : design.tables) {
    uint32_t w = geometry.sram_width_bits;
    uint32_t d = geometry.sram_depth;
    uint32_t row =
        t.spec.key_width_bits + 8 + 16 + t.spec.action_data_width_bits;
    blocks_per_copy += ((row + w - 1) / w) *
                       ((t.spec.size + d - 1) / d);
  }
  std::printf("  base design needs %llu SRAM blocks per table copy; "
              "pool has %u blocks\n",
              static_cast<unsigned long long>(blocks_per_copy),
              geometry.sram_blocks);
  std::printf("%-10s %26s %26s\n", "pipelines", "PISA entry-capacity scale",
              "IPSA entry-capacity scale");
  for (uint32_t pipes : {1u, 2u, 4u, 8u}) {
    // PISA: the pool is split across pipelines AND each holds a full copy.
    double pisa_scale =
        static_cast<double>(geometry.sram_blocks) / pipes /
        static_cast<double>(blocks_per_copy);
    // IPSA: one shared copy regardless of pipeline count.
    double ipsa_scale = static_cast<double>(geometry.sram_blocks) /
                        static_cast<double>(blocks_per_copy);
    std::printf("%-10u %25.2fx %25.2fx\n", pipes,
                std::min(pisa_scale, ipsa_scale), ipsa_scale);
  }
  std::printf("\n");
  return OkStatus();
}

Status A6_PipelineLatency() {
  // §5 discussion, point (3): "since only used TSPs are kept in the
  // pipeline in IPSA, not only the power consumption but also the pipeline
  // latency is reduced" — PISA packets traverse ALL physical stages whether
  // or not they hold a program. Measured as mean end-to-end cycles per
  // packet on the behavioral devices (parse + every stage traversal +
  // match + action).
  std::printf("A6: pipeline latency, all physical stages (PISA) vs active "
              "TSPs only (IPSA)\n");
  std::printf("%-10s %18s %18s\n", "use case", "pbm cycles/pkt",
              "ipbm cycles/pkt");
  for (UseCase uc : {UseCase::kBase, UseCase::kEcmp, UseCase::kProbe}) {
    net::WorkloadConfig wcfg = WorkloadFor(uc);
    net::Workload warm(wcfg);
    IPSA_ASSIGN_OR_RETURN(Rp4Setup rp4, MakeRp4Setup(uc, &warm));
    IPSA_ASSIGN_OR_RETURN(PisaSetup pisa, MakePisaSetup(uc, &warm));
    net::Workload gen_a(wcfg), gen_b(wcfg);
    uint64_t cycles_a = 0, cycles_b = 0;
    const int kPackets = 1000;
    for (int i = 0; i < kPackets; ++i) {
      net::Packet a = gen_a.NextPacket();
      net::Packet b = gen_b.NextPacket();
      IPSA_ASSIGN_OR_RETURN(telemetry::ProcessResult ra,
                            pisa.device->Process(a, 1));
      IPSA_ASSIGN_OR_RETURN(telemetry::ProcessResult rb,
                            rp4.device->Process(b, 1));
      cycles_a += ra.cycles;
      cycles_b += rb.cycles;
    }
    std::printf("%-10s %18.1f %18.1f\n", UseCaseName(uc),
                static_cast<double>(cycles_a) / kPackets,
                static_cast<double>(cycles_b) / kPackets);
  }
  std::printf("\n");
  return OkStatus();
}

int Main() {
  auto program = BaseProgram();
  if (!program.ok()) {
    std::fprintf(stderr, "base compile failed: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }
  Status s = A1_StageMerge(*program);
  if (s.ok()) s = A2_LayoutModes(*program);
  if (s.ok()) s = A3_PackingSolver();
  if (s.ok()) s = A4_CrossbarKinds(*program);
  if (s.ok()) s = A5_ParallelPipelines(*program);
  if (s.ok()) s = A6_PipelineLatency();
  if (!s.ok()) {
    std::fprintf(stderr, "ablation failed: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ipsa::bench

int main() { return ipsa::bench::Main(); }
