// Fabric-wide benchmark: throughput, reconvergence, and upgrade-window cost
// of the 2x2 leaf–spine harness (src/fabric).
//
// Three numbers matter and all three go to BENCH_fabric.json:
//   * fabric_pps — all-pairs packets pushed through all four switches per
//     second of wall time, injection to quiescence;
//   * reconvergence — wall time for the control plane to withdraw a dead
//     spine's ECMP buckets on every leaf, plus the accounted drops while
//     the link was down (nothing may go *unaccounted*, ever);
//   * upgrade window — the rolling fab_acl install across every switch
//     under live traffic: wall time, packets carried, packets lost (the
//     paper's promise is exactly zero), and the post-upgrade pps.
//
// Hand-rolled timing (no google-benchmark): the interesting figures are
// wall-clock phases of one long scenario, and --smoke turns the two
// invariants into exit codes for CI: any lost packet fails, and a
// post-upgrade pps regression beyond 10% fails (the spliced fab_acl stage
// ships an empty table — it must be near-free).
//
//   $ bench_fabric            # full run
//   $ bench_fabric --smoke    # quick CI gate
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench/report_context.h"
#include "controller/designs.h"
#include "fabric/leaf_spine.h"
#include "fabric/upgrade.h"
#include "util/json.h"

namespace ipsa::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Packets per second for `rounds` all-pairs rounds, injection to
// quiescence; returns the best round (noise-robust on shared runners).
Result<double> MeasurePps(fabric::LeafSpine& fab, uint32_t packets_per_flow,
                          int rounds, uint32_t& seq) {
  double best_pps = 0;
  for (int r = 0; r < rounds + 1; ++r) {  // round 0 is warmup
    IPSA_RETURN_IF_ERROR(fab.fabric().BeginWindow());
    Clock::time_point t0 = Clock::now();
    IPSA_RETURN_IF_ERROR(fab.InjectAllPairs(packets_per_flow, seq));
    double ms = MsSince(t0);
    seq += packets_per_flow;
    IPSA_ASSIGN_OR_RETURN(fabric::OracleReport report,
                          fab.fabric().CheckOracle());
    if (!report.ok()) {
      return InternalError("pps round lost packets: " + report.ToString());
    }
    double pps = static_cast<double>(report.injected) / (ms / 1000.0);
    if (r > 0) best_pps = std::max(best_pps, pps);
  }
  return best_pps;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_fabric.json";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else {
      std::fprintf(stderr, "usage: bench_fabric [--smoke] [--out=FILE.json]\n");
      return 2;
    }
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "WARNING: bench_fabric built without NDEBUG; figures are "
               "not comparable.\n");
  if (smoke) {
    std::fprintf(stderr, "--smoke refuses to gate on a Debug build.\n");
    return 1;
  }
#endif
  const uint32_t packets_per_flow = smoke ? 4 : 16;
  const int rounds = smoke ? 3 : 8;

  fabric::LeafSpineOptions options;  // 2x2x4, the reference harness
  options.fabric.shadow_oracle = false;  // measure the primaries alone
  auto built = fabric::LeafSpine::Create(options);
  if (!built.ok()) {
    std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
    return 1;
  }
  fabric::LeafSpine& fab = **built;
  uint32_t seq = 0;
  uint64_t total_lost = 0;

  // --- fabric-wide throughput ----------------------------------------------
  auto pps = MeasurePps(fab, packets_per_flow, rounds, seq);
  if (!pps.ok()) {
    std::fprintf(stderr, "pps: %s\n", pps.status().ToString().c_str());
    return 1;
  }
  std::printf("fabric_pps              %12.0f pkt/s\n", *pps);

  // --- reconvergence after a spine-link failure ----------------------------
  auto link = fab.SpineLink(0, 0);
  if (!link.ok() || !fab.fabric().SetLinkUp(*link, false).ok()) return 1;
  if (!fab.fabric().BeginWindow().ok()) return 1;
  if (!fab.InjectAllPairs(packets_per_flow, seq).ok()) return 1;
  seq += packets_per_flow;
  auto failed = fab.fabric().CheckOracle();
  if (!failed.ok() || !failed->ok()) {
    std::fprintf(stderr, "failure window lost packets\n");
    return 1;
  }
  total_lost += static_cast<uint64_t>(failed->lost);

  Clock::time_point t_withdraw = Clock::now();
  if (!fab.WithdrawSpine(0).ok()) return 1;
  double withdraw_ms = MsSince(t_withdraw);

  if (!fab.fabric().BeginWindow().ok()) return 1;
  Clock::time_point t_probe = Clock::now();
  if (!fab.InjectAllPairs(packets_per_flow, seq).ok()) return 1;
  double probe_ms = MsSince(t_probe);
  seq += packets_per_flow;
  auto reconverged = fab.fabric().CheckOracle();
  if (!reconverged.ok() || !reconverged->ok() ||
      reconverged->delivered != reconverged->injected) {
    std::fprintf(stderr, "reconvergence did not restore full delivery\n");
    return 1;
  }
  total_lost += static_cast<uint64_t>(reconverged->lost);
  // Reconvergence time as an operator would see it: push the new control
  // state, then the first full traffic round already delivers 100%.
  double reconvergence_ms = withdraw_ms + probe_ms;
  std::printf("reconvergence           %12.2f ms (withdraw %.2f ms, "
              "%llu drops while down)\n",
              reconvergence_ms, withdraw_ms,
              static_cast<unsigned long long>(failed->link_down_drops));
  if (!fab.fabric().SetLinkUp(*link, true).ok()) return 1;
  if (!fab.RestoreSpine(0).ok()) return 1;

  // --- rolling in-situ upgrade ---------------------------------------------
  fabric::UpgradeSpec spec;
  spec.source = controller::designs::FabricAclScript();
  spec.traffic_rounds_per_step = 1;
  auto upgrade = fabric::RollingUpgrade(
      fab.fabric(), spec, [&fab, packets_per_flow, &seq](fabric::Fabric&) {
        Status s = fab.InjectAllPairs(packets_per_flow, seq);
        seq += packets_per_flow;
        return s;
      });
  if (!upgrade.ok()) {
    std::fprintf(stderr, "upgrade: %s\n",
                 upgrade.status().ToString().c_str());
    return 1;
  }
  total_lost += static_cast<uint64_t>(upgrade->oracle.lost);
  std::printf("upgrade window          %12.2f ms (%llu pkts carried, "
              "%lld lost)\n",
              upgrade->wall_ms,
              static_cast<unsigned long long>(upgrade->oracle.injected),
              static_cast<long long>(upgrade->oracle.lost));

  // --- post-upgrade throughput (the spliced stage must be near-free) -------
  auto pps_after = MeasurePps(fab, packets_per_flow, rounds, seq);
  if (!pps_after.ok()) {
    std::fprintf(stderr, "pps: %s\n", pps_after.status().ToString().c_str());
    return 1;
  }
  double regression_pct = (1.0 - *pps_after / *pps) * 100.0;
  std::printf("pps after upgrade       %12.0f pkt/s (%+.2f%% vs baseline)\n",
              *pps_after, -regression_pct);

  util::Json report = util::Json::Object();
  report["benchmark"] = "fabric";
  report["mode"] = smoke ? "smoke" : "full";
  AddReportContext(report);
  report["leaves"] = options.leaves;
  report["spines"] = options.spines;
  report["hosts_per_leaf"] = options.hosts_per_leaf;
  report["packets_per_flow"] = packets_per_flow;
  report["rounds"] = rounds;
  report["fabric_pps"] = *pps;
  report["reconvergence_ms"] = reconvergence_ms;
  report["reconvergence_withdraw_ms"] = withdraw_ms;
  report["failure_window_link_down_drops"] = failed->link_down_drops;
  report["upgrade_wall_ms"] = upgrade->wall_ms;
  report["upgrade_window_injected"] = upgrade->oracle.injected;
  report["upgrade_window_lost"] = upgrade->oracle.lost;
  report["fabric_pps_after_upgrade"] = *pps_after;
  report["upgrade_pps_regression_pct"] = regression_pct;
  report["total_lost"] = total_lost;
  std::ofstream out(out_path, std::ios::trunc);
  out << report.Dump(2) << "\n";
  std::printf("report written to %s\n", out_path.c_str());

  if (total_lost != 0) {
    std::fprintf(stderr, "FAIL: %llu packets lost across the scenario\n",
                 static_cast<unsigned long long>(total_lost));
    return 1;
  }
  if (smoke && regression_pct > 10.0) {
    std::fprintf(stderr,
                 "FAIL: post-upgrade fabric pps regressed %.2f%% "
                 "(gate 10%%)\n",
                 regression_pct);
    return 1;
  }
  std::printf("0 packets lost; upgrade pps regression %.2f%% (gate 10%%)\n",
              regression_pct);
  return 0;
}

}  // namespace
}  // namespace ipsa::bench

int main(int argc, char** argv) { return ipsa::bench::Main(argc, argv); }
