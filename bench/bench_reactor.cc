// Reaction-latency benchmark: detect→applied time of the closed control
// loop (src/reactor), in-process and over the wire, to BENCH_reactor.json.
//
// The number that matters is the detect→applied latency: the clock starts
// when a policy condition evaluates true over a fresh telemetry window and
// stops when the last sink acknowledged the pre-packed plan (for in-situ
// toggles, when the data plane runs the new epoch). Everything slower —
// parsing, allocation, name resolution — was paid at plan-compile time, so
// this measures the residual fire path only.
//
// Four figures, each an exact percentile over repeated fire cycles:
//   * failover   — port-stall trigger fires bucket withdrawals on every
//     leaf of the 2x2x4 fabric (the reconvergence path);
//   * rebalance  — ratio trigger overwrites skewed ECMP buckets back to
//     their round-robin owners;
//   * probe      — rate trigger splices the fab_probe stage in-situ (the
//     detect→applied clock includes the template install);
//   * wire       — the same pre-packed batch applied to a live switchd
//     over the control channel (ApplyBatchPrepacked round trip).
//
// Conservation holds throughout: every cycle runs under the fabric oracle,
// link-down drops are accounted, and reconverged windows must deliver 100%.
// Hand-rolled timing (no google-benchmark); --smoke turns the budgets into
// exit codes: in-process p99 < 1 ms per policy, wire p99 < 10 ms, 0 lost.
//
//   $ bench_reactor            # full run
//   $ bench_reactor --smoke    # quick CI gate
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/report_context.h"
#include "controller/baseline.h"
#include "controller/designs.h"
#include "controller/runtime_api.h"
#include "daemon/switchd.h"
#include "fabric/leaf_spine.h"
#include "reactor/fabric_policies.h"
#include "reactor/reactor.h"
#include "rpc/client.h"
#include "util/json.h"

namespace ipsa::bench {
namespace {

using controller::Bits;
using controller::KeyValue;
using controller::MacBits;
using fabric::LeafSpine;
using fabric::LeafSpineOptions;

// Exact percentile over the collected samples (nearest-rank on the sorted
// vector — cycle counts are small enough that estimation would be noise).
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = q * static_cast<double>(samples.size() - 1);
  return samples[static_cast<size_t>(rank + 0.5)];
}

struct Figures {
  uint64_t fires = 0;
  std::vector<double> us;  // detect→applied per fire
};

// Conservation totals across every scenario window.
struct Books {
  uint64_t injected = 0;
  uint64_t delivered = 0;
  int64_t lost = 0;
  uint64_t link_down_drops = 0;
};

Status Account(fabric::LeafSpine& fab, Books& books, bool expect_full) {
  IPSA_ASSIGN_OR_RETURN(fabric::OracleReport report,
                        fab.fabric().CheckOracle());
  if (!report.ok()) {
    return InternalError("oracle violation: " + report.ToString());
  }
  if (expect_full && report.delivered != report.injected) {
    return InternalError("window did not deliver 100%: " + report.ToString());
  }
  books.injected += report.injected;
  books.delivered += report.delivered;
  books.lost += report.lost;
  books.link_down_drops += report.link_down_drops;
  return OkStatus();
}

LeafSpineOptions BenchFabric() {
  LeafSpineOptions options;  // 2x2x4, the reference harness
  // Measure the primary pipelines alone: shadow twins would double every
  // fired op. The oracle's packet books do not need the twins.
  options.fabric.shadow_oracle = false;
  return options;
}

// One failover fire cycle: kill the leaf0–spine0 link, let the stall
// trigger withdraw spine0's buckets on every leaf, then restore and verify
// full delivery before the next cycle.
Result<Figures> RunFailover(int cycles, uint32_t& seq, Books& books) {
  IPSA_ASSIGN_OR_RETURN(std::unique_ptr<LeafSpine> ls,
                        LeafSpine::Create(BenchFabric()));
  LeafSpine& fab = *ls;
  IPSA_ASSIGN_OR_RETURN(auto lsr, reactor::MakeLeafSpineReactor(fab));
  IPSA_ASSIGN_OR_RETURN(
      reactor::Policy policy,
      reactor::SpineFailoverPolicy(fab, *lsr, /*watch_leaf=*/0, /*spine=*/0,
                                   /*guard_min=*/1));
  reactor::Reactor& reactor = lsr->reactor;
  IPSA_RETURN_IF_ERROR(reactor.AddPolicy(std::move(policy)));
  IPSA_ASSIGN_OR_RETURN(uint32_t link, fab.SpineLink(0, 0));

  // Seed the telemetry window with one healthy round.
  IPSA_RETURN_IF_ERROR(fab.fabric().BeginWindow());
  IPSA_RETURN_IF_ERROR(fab.InjectAllPairs(1, seq));
  seq += 1;
  IPSA_RETURN_IF_ERROR(reactor.Tick().status());
  IPSA_RETURN_IF_ERROR(Account(fab, books, /*expect_full=*/true));

  Figures fig;
  for (int c = 0; c < cycles; ++c) {
    IPSA_RETURN_IF_ERROR(fab.fabric().BeginWindow());
    IPSA_RETURN_IF_ERROR(fab.fabric().SetLinkUp(link, false));
    IPSA_RETURN_IF_ERROR(fab.InjectAllPairs(1, seq));
    seq += 1;
    IPSA_ASSIGN_OR_RETURN(reactor::TickReport tick, reactor.Tick());
    if (tick.fired != 1) {
      return InternalError("failover cycle " + std::to_string(c) +
                           ": expected 1 fire, got " +
                           std::to_string(tick.fired));
    }
    const reactor::PolicyStatus* st = reactor.status("failover-spine0");
    fig.us.push_back(st->last_detect_to_applied_us);
    // Drops while the link was down must be accounted, never lost.
    IPSA_RETURN_IF_ERROR(Account(fab, books, /*expect_full=*/false));

    // Restore: link up, buckets back, one full-delivery round (doubles as
    // the policy's cooldown tick and re-establishes the healthy window).
    IPSA_RETURN_IF_ERROR(fab.fabric().SetLinkUp(link, true));
    IPSA_RETURN_IF_ERROR(fab.RestoreSpine(0));
    IPSA_RETURN_IF_ERROR(fab.fabric().BeginWindow());
    IPSA_RETURN_IF_ERROR(fab.InjectAllPairs(1, seq));
    seq += 1;
    IPSA_RETURN_IF_ERROR(reactor.Tick().status());
    IPSA_RETURN_IF_ERROR(Account(fab, books, /*expect_full=*/true));
  }
  fig.fires = reactor.status("failover-spine0")->fires;
  return fig;
}

// One rebalance fire cycle: skew leaf0's buckets {1,3,5} onto spine0 by
// hand, let the ratio trigger overwrite them back to round-robin owners.
Result<Figures> RunRebalance(int cycles, uint32_t& seq, Books& books) {
  IPSA_ASSIGN_OR_RETURN(std::unique_ptr<LeafSpine> ls,
                        LeafSpine::Create(BenchFabric()));
  LeafSpine& fab = *ls;
  IPSA_ASSIGN_OR_RETURN(auto lsr, reactor::MakeLeafSpineReactor(fab));
  const std::vector<uint32_t> buckets = {1, 3, 5};
  IPSA_ASSIGN_OR_RETURN(
      reactor::Policy policy,
      reactor::EcmpRebalancePolicy(fab, *lsr, /*l=*/0, /*hot_spine=*/0,
                                   /*cold_spine=*/1, buckets, /*ratio=*/2.0,
                                   /*min_count=*/8));
  reactor::Reactor& reactor = lsr->reactor;
  IPSA_RETURN_IF_ERROR(reactor.AddPolicy(std::move(policy)));
  IPSA_ASSIGN_OR_RETURN(compiler::ApiSpec api,
                        fab.fabric().node(fab.LeafNode(0)).Api());
  controller::EntryBuilder builder(api);

  IPSA_RETURN_IF_ERROR(fab.fabric().BeginWindow());
  IPSA_RETURN_IF_ERROR(fab.InjectAllPairs(2, seq));
  seq += 2;
  IPSA_RETURN_IF_ERROR(reactor.Tick().status());  // seeds the window

  Figures fig;
  for (int c = 0; c < cycles; ++c) {
    for (uint32_t b : buckets) {
      IPSA_ASSIGN_OR_RETURN(
          table::Entry entry,
          builder.BuildSelectorMember(
              "fab_ecmp_v4", b, "fab_set_spine",
              {Bits(16, LeafSpine::kL3Bd), MacBits(LeafSpine::SpineMac(0))}));
      IPSA_RETURN_IF_ERROR(fab.fabric().ApplyTableOp(
          fab.LeafNode(0), rpc::TableOp{.op = rpc::TableOpKind::kAdd,
                                        .table = "fab_ecmp_v4",
                                        .entry = std::move(entry)}));
    }
    IPSA_RETURN_IF_ERROR(fab.InjectAllPairs(2, seq));
    seq += 2;
    IPSA_ASSIGN_OR_RETURN(reactor::TickReport tick, reactor.Tick());
    if (tick.fired != 1) {
      return InternalError("rebalance cycle " + std::to_string(c) +
                           ": expected 1 fire, got " +
                           std::to_string(tick.fired));
    }
    fig.us.push_back(
        reactor.status("rebalance-leaf0")->last_detect_to_applied_us);
    // Balanced round: cooldown tick over a re-spread window.
    IPSA_RETURN_IF_ERROR(fab.InjectAllPairs(2, seq));
    seq += 2;
    IPSA_RETURN_IF_ERROR(reactor.Tick().status());
  }
  IPSA_RETURN_IF_ERROR(Account(fab, books, /*expect_full=*/true));
  fig.fires = reactor.status("rebalance-leaf0")->fires;
  return fig;
}

// One probe-toggle cycle: a traffic burst splices fab_probe in-situ (the
// sample includes the template install + epoch ack), a quiet window removes
// it again so the next cycle re-splices.
Result<Figures> RunProbeToggle(int cycles, uint32_t& seq, Books& books) {
  IPSA_ASSIGN_OR_RETURN(std::unique_ptr<LeafSpine> ls,
                        LeafSpine::Create(BenchFabric()));
  LeafSpine& fab = *ls;
  IPSA_ASSIGN_OR_RETURN(auto lsr, reactor::MakeLeafSpineReactor(fab));
  IPSA_ASSIGN_OR_RETURN(
      reactor::Policy policy,
      reactor::ProbeTogglePolicy(fab, *lsr, /*l=*/0, /*host_port=*/0,
                                 /*on_threshold=*/5, /*off_threshold=*/1));
  reactor::Reactor& reactor = lsr->reactor;
  IPSA_RETURN_IF_ERROR(reactor.AddPolicy(std::move(policy)));

  IPSA_RETURN_IF_ERROR(fab.fabric().BeginWindow());
  IPSA_RETURN_IF_ERROR(fab.InjectAllPairs(1, seq));
  seq += 1;
  IPSA_RETURN_IF_ERROR(reactor.Tick().status());  // seeds the window

  Figures fig;
  for (int c = 0; c < cycles; ++c) {
    IPSA_RETURN_IF_ERROR(fab.InjectAllPairs(1, seq));
    seq += 1;
    IPSA_ASSIGN_OR_RETURN(reactor::TickReport tick, reactor.Tick());
    if (tick.fired != 1) {
      return InternalError("probe cycle " + std::to_string(c) +
                           ": expected 1 fire, got " +
                           std::to_string(tick.fired));
    }
    fig.us.push_back(
        reactor.status("probe-leaf0")->last_detect_to_applied_us);
    // Quiet window: the clear condition removes the stage in-situ.
    IPSA_ASSIGN_OR_RETURN(reactor::TickReport quiet, reactor.Tick());
    if (quiet.cleared != 1) {
      return InternalError("probe cycle " + std::to_string(c) +
                           ": stage was not removed");
    }
  }
  IPSA_RETURN_IF_ERROR(Account(fab, books, /*expect_full=*/true));
  fig.fires = reactor.status("probe-leaf0")->fires;
  return fig;
}

// Over the wire: a live in-process switchd, a client-backed metric source,
// and a ClientSink firing the pre-packed batch through the control channel.
// The trigger is always-true over a fresh window, so every tick is one
// QueryMetrics poll followed by one measured ApplyBatchPrepacked fire.
Result<Figures> RunWire(int cycles) {
  daemon::SwitchdOptions options;
  options.udp_ports = 4;
  daemon::Switchd switchd(options);
  IPSA_RETURN_IF_ERROR(switchd.Start());

  rpc::ClientOptions copt;
  copt.host = "127.0.0.1";
  copt.port = switchd.control_port();
  copt.client_name = "bench_reactor";
  rpc::Client client(copt);
  auto cleanup = [&switchd]() { switchd.Stop(); };

  Figures fig;
  Status run = [&]() -> Status {
    IPSA_RETURN_IF_ERROR(
        client.Install(rpc::InstallKind::kBaseP4, controller::designs::BaseP4())
            .status());
    IPSA_ASSIGN_OR_RETURN(compiler::ApiSpec api, client.FetchApi());
    std::vector<rpc::TableOp> ops;
    controller::AddEntryFn collect = [&ops](const std::string& table,
                                            const table::Entry& entry) {
      ops.push_back(rpc::TableOp{.op = rpc::TableOpKind::kAdd,
                                 .table = table,
                                 .entry = entry});
      return OkStatus();
    };
    controller::BaselineConfig config;
    IPSA_RETURN_IF_ERROR(controller::PopulateBaseline(api, collect, config));
    IPSA_RETURN_IF_ERROR(client.ApplyBatch(ops).status());

    reactor::Reactor reactor;
    IPSA_RETURN_IF_ERROR(
        reactor.AddSource(reactor::SourceFromClient("wire", client)));
    reactor::Malleable malleable;
    malleable.tables.insert("port_map");
    // An idempotent overwrite of a baseline entry: pure fire-path latency,
    // no behavioral change on the device.
    IPSA_ASSIGN_OR_RETURN(
        reactor::CompiledPlan plan,
        reactor::PlanBuilder("wire-touch", api, malleable)
            .Modify("port_map", "set_if_index", {KeyValue(0)}, {Bits(16, 1)})
            .Compile());
    reactor::Policy policy;
    policy.name = "wire-apply";
    policy.trigger = reactor::PortRateAbove("wire", 0, 0);
    policy.fire.push_back(reactor::PlanBinding{
        std::make_shared<reactor::ClientSink>(client), std::move(plan)});
    IPSA_RETURN_IF_ERROR(reactor.AddPolicy(std::move(policy)));

    IPSA_RETURN_IF_ERROR(reactor.Tick().status());  // seeds the window
    for (int c = 0; c < cycles; ++c) {
      IPSA_ASSIGN_OR_RETURN(reactor::TickReport tick, reactor.Tick());
      if (tick.fired != 1) {
        return InternalError("wire cycle " + std::to_string(c) +
                             ": expected 1 fire, got " +
                             std::to_string(tick.fired));
      }
      fig.us.push_back(
          reactor.status("wire-apply")->last_detect_to_applied_us);
    }
    fig.fires = reactor.status("wire-apply")->fires;
    return OkStatus();
  }();
  cleanup();
  IPSA_RETURN_IF_ERROR(run);
  return fig;
}

void PrintFigures(const char* name, const Figures& fig) {
  std::printf("%-22s %10.1f us p50 %10.1f us p99  (%llu fires)\n", name,
              Percentile(fig.us, 0.5), Percentile(fig.us, 0.99),
              static_cast<unsigned long long>(fig.fires));
}

util::Json FiguresJson(const Figures& fig) {
  util::Json j = util::Json::Object();
  j["fires"] = fig.fires;
  j["p50_us"] = Percentile(fig.us, 0.5);
  j["p99_us"] = Percentile(fig.us, 0.99);
  return j;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_reactor.json";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else {
      std::fprintf(stderr,
                   "usage: bench_reactor [--smoke] [--out=FILE.json]\n");
      return 2;
    }
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "WARNING: bench_reactor built without NDEBUG; figures are "
               "not comparable.\n");
  if (smoke) {
    std::fprintf(stderr, "--smoke refuses to gate on a Debug build.\n");
    return 1;
  }
#endif
  const int cycles = smoke ? 8 : 50;
  constexpr double kInProcessBudgetUs = 1000.0;   // 1 ms, the paper's bar
  constexpr double kWireBudgetUs = 10000.0;       // loopback RPC round trip

  uint32_t seq = 0;
  Books books;
  auto failover = RunFailover(cycles, seq, books);
  if (!failover.ok()) {
    std::fprintf(stderr, "failover: %s\n",
                 failover.status().ToString().c_str());
    return 1;
  }
  PrintFigures("failover", *failover);

  auto rebalance = RunRebalance(cycles, seq, books);
  if (!rebalance.ok()) {
    std::fprintf(stderr, "rebalance: %s\n",
                 rebalance.status().ToString().c_str());
    return 1;
  }
  PrintFigures("rebalance", *rebalance);

  auto probe = RunProbeToggle(cycles, seq, books);
  if (!probe.ok()) {
    std::fprintf(stderr, "probe: %s\n", probe.status().ToString().c_str());
    return 1;
  }
  PrintFigures("probe_toggle", *probe);

  auto wire = RunWire(cycles);
  if (!wire.ok()) {
    std::fprintf(stderr, "wire: %s\n", wire.status().ToString().c_str());
    return 1;
  }
  PrintFigures("wire", *wire);

  std::printf("conservation           %llu injected, %llu delivered, "
              "%lld lost, %llu accounted link-down drops\n",
              static_cast<unsigned long long>(books.injected),
              static_cast<unsigned long long>(books.delivered),
              static_cast<long long>(books.lost),
              static_cast<unsigned long long>(books.link_down_drops));

  util::Json report = util::Json::Object();
  report["benchmark"] = "reactor";
  report["mode"] = smoke ? "smoke" : "full";
  AddReportContext(report);
  report["cycles"] = cycles;
  report["failover"] = FiguresJson(*failover);
  report["rebalance"] = FiguresJson(*rebalance);
  report["probe_toggle"] = FiguresJson(*probe);
  report["wire"] = FiguresJson(*wire);
  util::Json conservation = util::Json::Object();
  conservation["injected"] = books.injected;
  conservation["delivered"] = books.delivered;
  conservation["lost"] = books.lost;
  conservation["link_down_drops"] = books.link_down_drops;
  report["conservation"] = conservation;
  std::ofstream out(out_path, std::ios::trunc);
  out << report.Dump(2) << "\n";
  std::printf("report written to %s\n", out_path.c_str());

  if (books.lost != 0) {
    std::fprintf(stderr, "FAIL: %lld packets lost across the scenario\n",
                 static_cast<long long>(books.lost));
    return 1;
  }
  if (smoke) {
    struct Gate {
      const char* name;
      double p99;
      double budget;
    } gates[] = {
        {"failover", Percentile(failover->us, 0.99), kInProcessBudgetUs},
        {"rebalance", Percentile(rebalance->us, 0.99), kInProcessBudgetUs},
        {"probe_toggle", Percentile(probe->us, 0.99), kInProcessBudgetUs},
        {"wire", Percentile(wire->us, 0.99), kWireBudgetUs},
    };
    for (const Gate& g : gates) {
      if (g.p99 > g.budget) {
        std::fprintf(stderr,
                     "FAIL: %s detect->applied p99 %.1f us over the "
                     "%.0f us budget\n",
                     g.name, g.p99, g.budget);
        return 1;
      }
    }
    std::printf("all detect->applied p99 within budget; 0 packets lost\n");
  }
  return 0;
}

}  // namespace
}  // namespace ipsa::bench

int main(int argc, char** argv) { return ipsa::bench::Main(argc, argv); }
