// insitu: an ipbm base design forwards live traffic while it cycles the C1
// function in and out (ApplyScript(ecmp) -> PopulateEcmp -> traffic ->
// ApplyScript(remove) -> traffic). Interleaved with it, pbm makes the same
// change the PISA way: a full CompileAndLoad of the other program, which
// repopulates every table from the controller's shadow store (Table 1's
// baseline flow). The controller, the compiler and the CCM commands do most
// of the work here; the packet path only rebuilds its fast path lazily on
// the first batch after each epoch change.
#include <span>

#include "bench/common.h"
#include "controller/script.h"
#include "scenario.h"

namespace perfbench {
namespace {

using ipsa::Status;
using ipsa::bench::UseCase;
using ipsa::net::Packet;
namespace designs = ipsa::controller::designs;

constexpr size_t kBatch = 64;
constexpr size_t kBatches = 8;
// Traffic batches forwarded after each update, before the next one.
constexpr size_t kBatchesBetween = 4;
constexpr uint32_t kInPort = 1;
// ipbm cycles per pbm reload pair: a reload pair costs about as much as
// twenty cycles, and cycle_us_p90 needs far more samples than reload_ms_p50.
constexpr uint64_t kCyclesPerReload = 16;

struct Acc {
  CycleClock cycles;
  uint64_t pkts = 0;       // ipbm packets forwarded inside cycles
  double cycle_ns = 0;     // ipbm wall time of the cycles
  std::vector<double> reload_ms;
  // Each update on its own, insert and remove mixed, unscaled: not a
  // benchmark metric (the two kinds are far apart, so its percentiles jump
  // between runs), printed to show why cycle_us times whole pairs.
  std::vector<double> update_us;
};

// Per-layer sums of the traced slices.
struct Layers {
  double parse_us = 0, compile_us = 0, apply_us = 0, populate_us = 0;
  uint64_t scripts = 0, updates = 0, populates = 0;
  double first_batch_us = 0, steady_batch_us = 0;
  uint64_t first_batches = 0, steady_batches = 0;
  int64_t sram_leaked = 0;
  uint64_t cycles = 0;
  double pisa_compile_ms = 0, pisa_load_ms = 0, pisa_flow_load_ms = 0;
  uint64_t reloads = 0;
};

class Insitu : public Scenario {
 public:
  const char* name() const override { return "insitu"; }

  Status Setup(const Inputs&) override {
    IPSA_ASSIGN_OR_RETURN(ipbm_, ipsa::bench::MakeRp4Setup(UseCase::kBase));
    // pbm is populated on the base program first and then upgraded, so the
    // controller's shadow store holds the entries of both designs and every
    // later full reload restores them all.
    IPSA_ASSIGN_OR_RETURN(pbm_, ipsa::bench::MakePisaSetup(UseCase::kBase));
    IPSA_RETURN_IF_ERROR(
        pbm_.controller->CompileAndLoad(designs::BasePlusEcmpP4()).status());
    auto pbm_add = [this](const std::string& t, const ipsa::table::Entry& e) {
      return pbm_.controller->AddEntry(t, e);
    };
    IPSA_RETURN_IF_ERROR(ipsa::controller::PopulateEcmp(
        pbm_.controller->api(), pbm_add, pbm_.config));
    return pbm_.controller->CompileAndLoad(designs::BaseP4()).status();
  }

  Status Prepare(const Inputs& in) override {
    // Interpreter twins of the three states: base, base+C1, and base+C1
    // after EcmpRemoveScript. The remove unloads C1 but does not bring back
    // the nexthop stage the insert replaced, so the post-remove state is its
    // own design; its twin goes through the same insert+remove.
    IPSA_ASSIGN_OR_RETURN(auto ref_base,
                          ipsa::bench::MakeRp4Setup(UseCase::kBase));
    IPSA_ASSIGN_OR_RETURN(auto ref_ecmp,
                          ipsa::bench::MakeRp4Setup(UseCase::kEcmp));
    IPSA_ASSIGN_OR_RETURN(auto ref_removed,
                          ipsa::bench::MakeRp4Setup(UseCase::kEcmp));
    IPSA_RETURN_IF_ERROR(ref_removed.controller
                             ->ApplyScript(designs::EcmpRemoveScript(),
                                           designs::ResolveSnippet)
                             .status());
    for (auto* r : {&ref_base, &ref_ecmp, &ref_removed}) {
      r->device->SetExecMode(ipsa::arch::ExecMode::kInterpret);
    }

    std::vector<Packet> traffic =
        EcmpTraffic(in.seed ^ 0x1A5170ull, kBatch * kBatches);
    bool distinguishable = false;
    for (size_t b = 0; b < kBatches; ++b) {
      batches_.emplace_back(
          traffic.begin() + static_cast<long>(b * kBatch),
          traffic.begin() + static_cast<long>((b + 1) * kBatch));
      ref_base_.push_back(RefDigest(*ref_base.device, b));
      ref_ecmp_.push_back(RefDigest(*ref_ecmp.device, b));
      ref_removed_.push_back(RefDigest(*ref_removed.device, b));
      distinguishable |= ref_removed_.back() != ref_ecmp_.back();
    }
    // A batch check can only catch the wrong design if the two differ.
    outcome.Check(distinguishable,
                  "insitu: post-insert and post-remove outputs are identical");
    // One untimed cycle, so every timed cycle goes between the same two
    // states (the first insert starts from the full base design).
    Acc warm;
    IpbmCycle(warm, nullptr);
    // Device ops of each update, counted once on the states the timed
    // cycles go between (the plans are discarded; the applies bring the
    // controller back to the state the warm cycle left).
    IPSA_ASSIGN_OR_RETURN(ops_insert_, CountDeviceOps(designs::EcmpScript()));
    IPSA_RETURN_IF_ERROR(
        ipbm_.controller
            ->ApplyScript(designs::EcmpScript(), designs::ResolveSnippet)
            .status());
    IPSA_ASSIGN_OR_RETURN(ops_remove_,
                          CountDeviceOps(designs::EcmpRemoveScript()));
    IPSA_RETURN_IF_ERROR(
        ipbm_.controller
            ->ApplyScript(designs::EcmpRemoveScript(), designs::ResolveSnippet)
            .status());
    // The design JSON each full reload loads, for the traced load probe.
    json_ecmp_ = PbmDesignJson(designs::BasePlusEcmpP4());
    json_base_ = PbmDesignJson(designs::BaseP4());
    if (json_ecmp_.empty() || json_base_.empty()) {
      return ipsa::InternalError("insitu: pbm design JSON unavailable");
    }
    return ipsa::OkStatus();
  }

  void RunSlice(int64_t budget_ns, double speed, Tracer* tracer) override {
    Acc& acc = acc_[tracer != nullptr];
    speed_ = speed;
    const int64_t end = NowNs() + budget_ns;
    while (NowNs() < end) {
      IpbmCycle(acc, tracer);
      if (cycle_id_ % kCyclesPerReload == 0) PbmReloadPair(acc, tracer);
    }
  }

  void Report(bool traced, MetricMap& out) const override {
    const Acc& a = acc_[traced];
    const auto& c = a.cycles.samples_us();
    out["cycle_us_p50"] = {Percentile(c, 50), "us"};
    out["cycle_us_p90"] = {Percentile(c, 90), "us"};
    out["insitu_pps"] = {
        a.cycle_ns > 0 ? static_cast<double>(a.pkts) * 1e9 / a.cycle_ns : 0,
        "pkt/s"};
    out["reload_ms_p50"] = {Percentile(a.reload_ms, 50), "ms"};
  }

  void Describe(std::vector<PercentileUse>& percentiles,
                std::vector<std::string>& notes) const override {
    const auto& u = acc_[0].update_us;
    for (double p : {50.0, 99.0}) {
      notes.push_back("info update_us_p" + std::to_string(int(p)) + " " +
                      std::to_string(Percentile(u, p)) + " us");
    }
    const size_t cycles = acc_[0].cycles.samples_us().size();
    percentiles.push_back({"cycle_us_p50", 50, cycles});
    percentiles.push_back({"cycle_us_p90", 90, cycles});
    percentiles.push_back({"reload_ms_p50", 50, acc_[0].reload_ms.size()});
  }

  void ReportLayers(const Tracer&, std::vector<LedgerLine>& lines,
                    std::vector<Explained>& explained) const override {
    const Layers& L = layers_;
    auto per = [](double sum, uint64_t n) {
      return n ? sum / static_cast<double>(n) : 0.0;
    };
    auto mean = [&](const std::vector<double>& v) {
      double sum = 0;
      for (double x : v) sum += x;
      return per(sum, v.size());
    };
    const double parse = per(L.parse_us, L.scripts);
    const double compile = per(L.compile_us, L.updates);
    const double apply = per(L.apply_us, L.updates);
    const double populate = per(L.populate_us, L.populates);
    const double first = per(L.first_batch_us, L.first_batches);
    const double steady = per(L.steady_batch_us, L.steady_batches);
    const char* moves = "cycle_us_p50";
    lines.push_back({"controller.parse_script_us", parse, "us", moves});
    lines.push_back({"compiler.compile_update_us", compile, "us", moves});
    lines.push_back({"ipsa.apply_plan_us", apply, "us", moves});
    lines.push_back({"ipsa.device_ops_per_update",
                     static_cast<double>(ops_insert_ + ops_remove_) / 2, "count",
                     moves});
    lines.push_back({"controller.populate_us", populate, "us", moves});
    lines.push_back(
        {"ipsa.first_batch_rebuild_us", first - steady, "us", moves});
    lines.push_back({"mem.sram_blocks_leaked_per_cycle",
                     per(static_cast<double>(L.sram_leaked), L.cycles), "count",
                     "none"});
    const double pc = per(L.pisa_compile_ms, L.reloads);
    const double pl = per(L.pisa_load_ms, L.reloads);
    const double pr = per(L.pisa_flow_load_ms, L.reloads) - pl;
    lines.push_back({"pisa.compile_ms", pc, "ms", "reload_ms_p50"});
    lines.push_back({"pisa.load_ms", pl, "ms", "reload_ms_p50"});
    lines.push_back({"pisa.repopulate_ms", pr, "ms", "reload_ms_p50"});

    // One cycle: two updates, one populate, kBatchesBetween batches after the
    // insert (the first one rebuilding) and the first batch after the remove.
    explained.push_back(
        {"cycle_us (mean of traced cycles)",
         mean(acc_[1].cycles.samples_us()) * 1e3,
         (2 * (parse + compile + apply) + populate + 2 * first +
          static_cast<double>(kBatchesBetween - 1) * steady) *
             1e3});
    explained.push_back({"reload_ms (mean of traced reload pairs)",
                         mean(acc_[1].reload_ms) * 1e6,
                         2 * (pc + pl + pr) * 1e6});
  }

 private:
  // Forwards batch `k` on `dev` and checks it against `want`. Returns the
  // batch's duration.
  template <typename Device>
  int64_t Batch(Device& dev, size_t k, uint64_t want, const char* what) {
    scratch_ = batches_[k];
    int64_t t0 = NowNs();
    auto r = dev.ProcessBatch(std::span(scratch_), kInPort);
    int64_t t1 = NowNs();
    outcome.Check(r.ok() && BatchDigest(scratch_, *r) == want,
                  std::string("insitu: ") + what +
                      " batch forwarded by the wrong design");
    return t1 - t0;
  }

  uint64_t RefDigest(ipsa::ipbm::IpbmSwitch& ref, size_t k) {
    std::vector<Packet> x = batches_[k];
    auto r = ref.ProcessBatch(std::span(x), kInPort);
    return r.ok() ? BatchDigest(x, *r) : 0;
  }

  // The number of device ops `script` compiles to against the controller's
  // current state.
  ipsa::Result<size_t> CountDeviceOps(const std::string& script) {
    IPSA_ASSIGN_OR_RETURN(
        auto req, ipsa::controller::ParseScript(script, designs::ResolveSnippet));
    IPSA_ASSIGN_OR_RETURN(
        auto plan, ipsa::compiler::CompileUpdate(
                       ipbm_.controller->program(), ipbm_.controller->layout(),
                       req, ipsa::compiler::Rp4bcOptions{}));
    return plan.ops.size();
  }

  // Times ParseScript on its own, outside the timed cycle. ApplyScript's
  // compile_ms covers ParseScript plus CompileUpdate; CompileUpdate's share
  // is compile_ms minus this time.
  double ProbeParse(const std::string& script) {
    const int64_t t0 = NowNs();
    auto req = ipsa::controller::ParseScript(script, designs::ResolveSnippet);
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    outcome.Check(req.ok(), "insitu: ParseScript failed");
    layers_.parse_us += us;
    ++layers_.scripts;
    return us;
  }

  // The design JSON a full reload of `p4` hands the device (from a scratch
  // controller, so the measured pbm is not touched).
  std::string PbmDesignJson(const std::string& p4) {
    ipsa::pisa::PisaSwitch dev;
    ipsa::controller::PisaFlowController ctl(
        dev, ipsa::compiler::PisaBackendOptions{});
    if (!ctl.CompileAndLoad(p4).ok()) return "";
    return dev.design().ToJson().Dump();
  }

  // `parse_us` is the script's ParseScript time from the probe (traced
  // slices only).
  bool Apply(const std::string& script, double parse_us, Tracer* tracer,
             uint64_t id) {
    ScopedSpan s(tracer, "controller.ApplyScript", id);
    auto t = ipbm_.controller->ApplyScript(script, designs::ResolveSnippet);
    if (!outcome.Check(t.ok(), "insitu: ApplyScript failed")) return false;
    if (tracer) {
      layers_.compile_us += t->compile_ms * 1e3 - parse_us;
      layers_.apply_us += t->load_ms * 1e3;
      ++layers_.updates;
    }
    return true;
  }

  void IpbmCycle(Acc& acc, Tracer* tracer) {
    const uint64_t id = ++cycle_id_;
    auto& pool = ipbm_.device->pool();
    const uint32_t used0 = pool.UsedBlocks(ipsa::mem::BlockKind::kSram);
    double parse_insert_us = 0, parse_remove_us = 0;
    if (tracer) {
      parse_insert_us = ProbeParse(designs::EcmpScript());
      parse_remove_us = ProbeParse(designs::EcmpRemoveScript());
    }

    const int64_t t0 = NowNs();
    acc.cycles.InsertIssued(t0, speed_);
    ScopedSpan cycle_span(tracer, "insitu.cycle", id);
    if (!Apply(designs::EcmpScript(), parse_insert_us, tracer, id)) return;
    {
      ScopedSpan s(tracer, "controller.PopulateEcmp", id);
      int64_t p0 = NowNs();
      auto add = [this](const std::string& t, const ipsa::table::Entry& e) {
        return ipbm_.controller->AddEntry(t, e);
      };
      Status st = ipsa::controller::PopulateEcmp(ipbm_.controller->api(), add,
                                                 ipbm_.config);
      outcome.Check(st.ok(), "insitu: PopulateEcmp failed");
      if (tracer) {
        layers_.populate_us += static_cast<double>(NowNs() - p0) / 1e3;
        ++layers_.populates;
      }
    }
    for (size_t b = 0; b < kBatchesBetween; ++b) {
      size_t k = next_++ % kBatches;
      int64_t ns = Batch(*ipbm_.device, k, ref_ecmp_[k], "post-insert");
      acc.pkts += kBatch;
      if (b == 0) {
        acc.update_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      }
      if (tracer) CountBatch(b == 0, ns);
    }
    const int64_t t_remove = NowNs();
    if (!Apply(designs::EcmpRemoveScript(), parse_remove_us, tracer, id)) {
      return;
    }
    acc.cycles.RemoveApplied();
    for (size_t b = 0; b < kBatchesBetween; ++b) {
      size_t k = next_++ % kBatches;
      int64_t ns = Batch(*ipbm_.device, k, ref_removed_[k], "post-remove");
      acc.pkts += kBatch;
      if (b == 0) {
        const int64_t t = NowNs();
        acc.cycles.BatchForwarded(t);
        acc.update_us.push_back(static_cast<double>(t - t_remove) / 1e3);
      }
      if (tracer) CountBatch(b == 0, ns);
    }
    acc.cycle_ns += static_cast<double>(NowNs() - t0) * speed_;
    const int64_t leaked =
        static_cast<int64_t>(pool.UsedBlocks(ipsa::mem::BlockKind::kSram)) -
        used0;
    // Blocks may come back (the first cycle frees the replaced nexthop
    // stage); they must never grow.
    outcome.Check(leaked <= 0,
                  "insitu: SRAM blocks leaked by an insert+remove cycle");
    if (tracer) {
      layers_.sram_leaked += leaked;
      ++layers_.cycles;
    }
  }

  void CountBatch(bool first, int64_t ns) {
    if (first) {
      layers_.first_batch_us += static_cast<double>(ns) / 1e3;
      ++layers_.first_batches;
    } else {
      layers_.steady_batch_us += static_cast<double>(ns) / 1e3;
      ++layers_.steady_batches;
    }
  }

  bool Reload(const std::string& p4, Tracer* tracer, uint64_t id) {
    ScopedSpan s(tracer, "pisa.CompileAndLoad", id);
    auto t = pbm_.controller->CompileAndLoad(p4);
    if (!outcome.Check(t.ok(), "insitu: pbm CompileAndLoad failed")) {
      return false;
    }
    if (tracer) {
      layers_.pisa_compile_ms += t->compile_ms;
      layers_.pisa_flow_load_ms += t->load_ms;
      ++layers_.reloads;
    }
    return true;
  }

  // The same change on pbm: full reload into base+C1, traffic, full reload
  // back to base, first batch. Timed like an ipbm cycle.
  void PbmReloadPair(Acc& acc, Tracer* tracer) {
    const uint64_t id = cycle_id_;
    const int64_t t0 = NowNs();
    if (!Reload(designs::BasePlusEcmpP4(), tracer, id)) return;
    for (size_t b = 0; b < kBatchesBetween; ++b) {
      size_t k = next_++ % kBatches;
      Batch(*pbm_.device, k, ref_ecmp_[k], "pbm post-reload");
    }
    if (!Reload(designs::BaseP4(), tracer, id)) return;
    size_t k = next_++ % kBatches;
    Batch(*pbm_.device, k, ref_base_[k], "pbm post-reload");
    acc.reload_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6 * speed_);
    if (tracer) {
      // Split each flow load into the device load proper, re-timed on a
      // scratch device from the same design JSON, and the repopulation.
      for (const std::string* json : {&json_ecmp_, &json_base_}) {
        int64_t l0 = NowNs();
        Status st = scratch_pbm_.LoadDesignJson(*json);
        int64_t l1 = NowNs();
        outcome.Check(st.ok(), "insitu: pbm scratch load failed");
        layers_.pisa_load_ms += static_cast<double>(l1 - l0) / 1e6;
      }
    }
  }

  ipsa::bench::Rp4Setup ipbm_;
  ipsa::bench::PisaSetup pbm_;
  ipsa::pisa::PisaSwitch scratch_pbm_;
  std::string json_ecmp_, json_base_;
  size_t ops_insert_ = 0, ops_remove_ = 0;
  std::vector<std::vector<Packet>> batches_;
  std::vector<uint64_t> ref_base_, ref_ecmp_, ref_removed_;
  std::vector<Packet> scratch_;
  size_t next_ = 0;
  uint64_t cycle_id_ = 0;
  double speed_ = 1;
  Acc acc_[2];
  Layers layers_;
};

}  // namespace

std::unique_ptr<Scenario> MakeInsitu() { return std::make_unique<Insitu>(); }

}  // namespace perfbench
