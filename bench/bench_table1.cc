// Reproduces Table 1: compiling time (t_C) and loading time (t_L) for the
// three runtime-update use cases, in both design flows and on both device
// classes.
//
//   rows 1-4: the *hardware* flows. t_C is the measured wall time of the
//     compiler pipeline (full P4 recompile vs incremental rp4bc); t_L is the
//     config-channel model (hw/models.h) applied to the exact config-word
//     counts the device charged (full design + table repopulation for PISA,
//     delta templates + new tables for IPSA).
//   rows 5-8: the *software switches* (bmv2 stand-in pbm vs ipbm). Both t_C
//     and t_L are measured wall times of really performing the operation on
//     the behavioral devices.
//
// Absolute milliseconds differ from the paper (different host, smaller
// programs); the paper's claim is the RATIO — IPSA lands at a few percent of
// PISA — which this harness regenerates. See EXPERIMENTS.md.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/table1.h"
#include "rp4/printer.h"

namespace ipsa::bench {
namespace {

int Main() {
  std::printf(
      "Table 1: compiling (t_C) and loading (t_L) time per use case [ms]\n");
  std::printf(
      "  (hardware rows use the config-channel latency model on exact "
      "config-word counts;\n   software rows are measured wall time on the "
      "behavioral switches)\n\n");
  std::printf("%-18s %10s %10s %10s %10s %10s %10s\n", "", "C1 t_C",
              "C1 t_L", "C2 t_C", "C2 t_L", "C3 t_C", "C3 t_L");

  const UseCase cases[] = {UseCase::kEcmp, UseCase::kSrv6, UseCase::kProbe};
  // Wall-clock noise on sub-millisecond software timings is significant;
  // take the per-metric minimum over a few repetitions.
  constexpr int kRepeats = 5;
  auto run_flow = [&](const char* label, bool ipsa, bool hardware) {
    std::vector<Row> rows;
    for (UseCase uc : cases) {
      Row best;
      bool ok = false;
      for (int rep = 0; rep < kRepeats; ++rep) {
        auto row = ipsa ? Rp4FlowUpdate(uc, hardware)
                        : PisaFlowUpdate(uc, hardware);
        if (!row.ok()) {
          std::fprintf(stderr, "%s %s failed: %s\n", label, UseCaseName(uc),
                       row.status().ToString().c_str());
          break;
        }
        if (!ok) {
          best = *row;
          ok = true;
        } else {
          best.tc_ms = std::min(best.tc_ms, row->tc_ms);
          best.tl_ms = std::min(best.tl_ms, row->tl_ms);
        }
      }
      rows.push_back(ok ? best : Row{});
    }
    std::printf("%-18s", label);
    for (const Row& r : rows) {
      std::printf(" %10.2f %10.2f", r.tc_ms, r.tl_ms);
    }
    std::printf("\n");
    return rows;
  };

  std::vector<Row> pisa_hw = run_flow("PISA  (hw flow)", false, true);
  std::vector<Row> ipsa_hw = run_flow("IPSA  (hw flow)", true, true);
  std::printf("%-18s", "ratio");
  double total_pisa = 0, total_ipsa = 0;
  for (size_t i = 0; i < pisa_hw.size(); ++i) {
    std::printf(" %9.2f%% %9.2f%%",
                100.0 * ipsa_hw[i].tc_ms / pisa_hw[i].tc_ms,
                100.0 * ipsa_hw[i].tl_ms / pisa_hw[i].tl_ms);
    total_pisa += pisa_hw[i].tc_ms + pisa_hw[i].tl_ms;
    total_ipsa += ipsa_hw[i].tc_ms + ipsa_hw[i].tl_ms;
  }
  std::printf("\n%-18s %.2f%%\n\n", "total ratio",
              100.0 * total_ipsa / total_pisa);

  std::vector<Row> bmv2 = run_flow("bmv2->pbm (sw)", false, false);
  std::vector<Row> ipbm = run_flow("ipbm      (sw)", true, false);
  std::printf("%-18s", "ratio");
  total_pisa = total_ipsa = 0;
  for (size_t i = 0; i < bmv2.size(); ++i) {
    std::printf(" %9.2f%% %9.2f%%", 100.0 * ipbm[i].tc_ms / bmv2[i].tc_ms,
                100.0 * ipbm[i].tl_ms / bmv2[i].tl_ms);
    total_pisa += bmv2[i].tc_ms + bmv2[i].tl_ms;
    total_ipsa += ipbm[i].tc_ms + ipbm[i].tl_ms;
  }
  std::printf("\n%-18s %.2f%%\n", "total ratio",
              100.0 * total_ipsa / total_pisa);

  // §4.2's closing note: removal and in-place update flows cost even less
  // than insertion. Measured on ipbm for the probe function.
  std::printf("\nInsertion vs in-place update vs removal (C3 probe, rP4 "
              "flow, software t in ms):\n");
  std::printf("%-12s %10s %10s %14s\n", "operation", "t_C", "t_L",
              "config words");
  {
    auto setup = MakeRp4Setup(UseCase::kBase);
    if (setup.ok()) {
      struct Step {
        const char* label;
        const std::string* script;
      };
      const Step steps[] = {
          {"load", &controller::designs::ProbeScript()},
          {"update", &controller::designs::ProbeUpdateScript()},
          {"remove", &controller::designs::ProbeRemoveScript()},
      };
      for (const Step& step : steps) {
        uint64_t words_before =
            setup->device->stats().config_words_written;
        auto timing = setup->controller->ApplyScript(
            *step.script, controller::designs::ResolveSnippet);
        if (!timing.ok()) {
          std::fprintf(stderr, "%s failed: %s\n", step.label,
                       timing.status().ToString().c_str());
          break;
        }
        std::printf("%-12s %10.2f %10.2f %14llu\n", step.label,
                    timing->compile_ms, timing->load_ms,
                    static_cast<unsigned long long>(
                        setup->device->stats().config_words_written -
                        words_before));
      }
    }
  }

  // Fig. 4 companion: print the TSP mapping after each in-situ update.
  std::printf("\nTSP mapping (Fig. 4) after each rP4-flow update:\n");
  for (UseCase uc : cases) {
    auto setup = MakeRp4Setup(uc);
    if (!setup.ok()) continue;
    std::printf("--- %s ---\n%s", UseCaseName(uc),
                setup->device->pipeline().MappingToString().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace ipsa::bench

int main() { return ipsa::bench::Main(); }
