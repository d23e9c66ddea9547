// In-network compute benchmark: aggregation goodput of the rP4 allreduce
// pipeline and the cost of a mid-job in-situ template splice.
//
// The scenario is one allreduce job on the 2x2 leaf–spine harness: every
// host except the collector contributes two 64-bit fixed-point values per
// chunk slot; the collector's leaf carries the spliced aggregation stage
// (sat_add/fxp_quantize into per-slot registers, exactly-once bitmap,
// completion rewrite). Three figures go to BENCH_allreduce.json:
//   * aggregation goodput — contributions absorbed per second of wall time
//     (and the equivalent payload MB/s), injection to quiescence;
//   * splice window — wall time of the in-situ v1 -> v2 aggregation
//     template update while the job is live (registers survive);
//   * post-splice goodput — the v2 template must not slow aggregation.
//
// Correctness is non-negotiable in every mode: each slot's result must be
// bit-exact against the host-side golden reduction, or the run fails.
// --smoke additionally gates the post-splice goodput regression at 10%.
//
//   $ bench_allreduce            # full run
//   $ bench_allreduce --smoke    # quick CI gate
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "arch/actions.h"
#include "bench/report_context.h"
#include "controller/designs.h"
#include "fabric/allreduce.h"
#include "fabric/leaf_spine.h"
#include "hw/models.h"
#include "rp4/parser.h"
#include "util/json.h"

namespace ipsa::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_allreduce.json";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else {
      std::fprintf(stderr,
                   "usage: bench_allreduce [--smoke] [--out=FILE.json]\n");
      return 2;
    }
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "WARNING: bench_allreduce built without NDEBUG; figures are "
               "not comparable.\n");
  if (smoke) {
    std::fprintf(stderr, "--smoke refuses to gate on a Debug build.\n");
    return 1;
  }
#endif
  const uint32_t slots = smoke ? 32 : 192;  // register depth caps at 256
  const uint32_t half = slots / 2;

  fabric::LeafSpineOptions options;        // 2x2x4, the reference harness
  options.fabric.shadow_oracle = false;    // measure the primaries alone
  options.fabric.capture_host_rx = true;   // results are read back at a host
  auto built = fabric::LeafSpine::Create(options);
  if (!built.ok()) {
    std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
    return 1;
  }

  fabric::AllreduceOptions opts;
  opts.slots = slots;
  opts.shift = 2;
  fabric::AllreduceJob job(**built, opts);
  if (!job.InstallAggregation().ok()) {
    std::fprintf(stderr, "install failed\n");
    return 1;
  }

  // --- aggregation goodput, v1 template ------------------------------------
  Clock::time_point t0 = Clock::now();
  auto pre = job.RunRange(0, half);
  double pre_ms = MsSince(t0);
  if (!pre.ok()) {
    std::fprintf(stderr, "v1 run: %s\n", pre.status().ToString().c_str());
    return 1;
  }
  double pre_cps = static_cast<double>(pre->contributions) / (pre_ms / 1000.0);
  std::printf("agg goodput (v1)        %12.0f contributions/s "
              "(%.2f MB/s payload)\n",
              pre_cps, pre_cps * 16 / 1e6);

  // --- in-situ splice window ------------------------------------------------
  t0 = Clock::now();
  if (!job.SpliceV2().ok()) {
    std::fprintf(stderr, "splice failed\n");
    return 1;
  }
  double splice_ms = MsSince(t0);
  std::printf("in-situ splice window   %12.3f ms (v1 -> v2, registers kept)\n",
              splice_ms);

  // --- aggregation goodput, v2 template -------------------------------------
  t0 = Clock::now();
  auto post = job.RunRange(half, slots);
  double post_ms = MsSince(t0);
  if (!post.ok()) {
    std::fprintf(stderr, "v2 run: %s\n", post.status().ToString().c_str());
    return 1;
  }
  double post_cps =
      static_cast<double>(post->contributions) / (post_ms / 1000.0);
  double regression_pct = (1.0 - post_cps / pre_cps) * 100.0;
  std::printf("agg goodput (v2)        %12.0f contributions/s "
              "(%+.2f%% vs v1)\n",
              post_cps, -regression_pct);

  // --- correctness against the host golden reduction ------------------------
  uint64_t wrong = 0;
  for (uint32_t slot = 0; slot < slots; ++slot) {
    auto it = job.results().find(slot);
    if (it == job.results().end() ||
        it->second.v0 != job.GoldenValue(slot, 0) ||
        it->second.v1 != job.GoldenValue(slot, 1)) {
      ++wrong;
    }
  }
  auto oracle = (*built)->fabric().CheckOracle();
  if (!oracle.ok() || !oracle->ok()) {
    std::fprintf(stderr, "FAIL: conservation oracle unbalanced\n");
    return 1;
  }
  std::printf("aggregates              %12u slots, %llu wrong\n", slots,
              static_cast<unsigned long long>(wrong));

  // --- hw cost of the extern ALU (src/hw) -----------------------------------
  // One stage processor (alr_agg) carries extern-using templates; price it.
  auto snippet =
      rp4::ParseRp4Snippet(controller::designs::AllreduceRp4Snippet());
  uint32_t extern_actions = 0;
  if (snippet.ok()) {
    for (const arch::ActionDef& a : snippet->actions) {
      if (arch::ActionUsesExternOps(a)) ++extern_actions;
    }
  }
  const uint32_t extern_stages = extern_actions > 0 ? 1 : 0;
  hw::ResourceRow alu = hw::ExternAluResources(extern_stages);
  double alu_w = hw::ExternAluPowerW(extern_stages);
  std::printf("extern ALU cost         %12.3f%% LUT, %.3f%% FF, %.3f W "
              "(%u stage)\n",
              alu.lut_pct, alu.ff_pct, alu_w, extern_stages);

  util::Json report = util::Json::Object();
  report["benchmark"] = "allreduce";
  report["mode"] = smoke ? "smoke" : "full";
  AddReportContext(report);
  report["leaves"] = options.leaves;
  report["spines"] = options.spines;
  report["hosts_per_leaf"] = options.hosts_per_leaf;
  report["workers"] = job.worker_count();
  report["slots"] = slots;
  report["shift"] = opts.shift;
  report["agg_contributions_per_s_v1"] = pre_cps;
  report["agg_payload_mb_per_s_v1"] = pre_cps * 16 / 1e6;
  report["splice_window_ms"] = splice_ms;
  report["agg_contributions_per_s_v2"] = post_cps;
  report["goodput_regression_pct"] = regression_pct;
  report["wrong_aggregates"] = wrong;
  report["extern_alu_stages"] = extern_stages;
  report["extern_alu_lut_pct"] = alu.lut_pct;
  report["extern_alu_ff_pct"] = alu.ff_pct;
  report["extern_alu_power_w"] = alu_w;
  std::ofstream out(out_path, std::ios::trunc);
  out << report.Dump(2) << "\n";
  std::printf("report written to %s\n", out_path.c_str());

  if (wrong != 0) {
    std::fprintf(stderr, "FAIL: %llu wrong aggregates\n",
                 static_cast<unsigned long long>(wrong));
    return 1;
  }
  if (smoke && regression_pct > 10.0) {
    std::fprintf(stderr,
                 "FAIL: v2 goodput regressed %.2f%% vs v1 (gate 10%%)\n",
                 regression_pct);
    return 1;
  }
  std::printf("0 wrong aggregates; v2 goodput regression %.2f%% "
              "(gate 10%%)\n",
              regression_pct);
  return 0;
}

}  // namespace
}  // namespace ipsa::bench

int main(int argc, char** argv) { return ipsa::bench::Main(argc, argv); }
