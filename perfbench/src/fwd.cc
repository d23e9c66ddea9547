// fwd: steady-state forwarding of the C1-ECMP design. Three phases
// alternate unit by unit: ipbm ProcessBatch, pbm ProcessBatch on the same
// packets, and an ipbm RunToCompletion(W) drain of a burst spread across all
// ports. The packet path does nearly all the work; the control path none.
#include <span>

#include "arch/context.h"
#include "arch/parse_engine.h"
#include "bench/common.h"
#include "scenario.h"

namespace perfbench {
namespace {

using ipsa::Status;
using ipsa::bench::UseCase;
using ipsa::net::Packet;

constexpr size_t kBatch = 64;
constexpr size_t kBatches = 16;
constexpr size_t kBurst = 1024;
constexpr uint32_t kInPort = 1;

const char* KindName(ipsa::table::MatchKind k) {
  switch (k) {
    case ipsa::table::MatchKind::kExact:
      return "exact";
    case ipsa::table::MatchKind::kLpm:
      return "lpm";
    case ipsa::table::MatchKind::kTernary:
      return "ternary";
    case ipsa::table::MatchKind::kSelector:
      return "selector";
  }
  return "?";
}

// Per phase: packets and nanoseconds inside the timed calls, and each
// call's own rate. The reported rate is the median call's: a call that a
// host hiccup stretched (a descheduled vCPU, a late worker thread) does not
// move it.
struct Rate {
  uint64_t pkts = 0;
  double ns = 0;
  std::vector<double> per_call;
  void Add(size_t n, double call_ns) {
    pkts += n;
    ns += call_ns;
    per_call.push_back(static_cast<double>(n) * 1e9 / call_ns);
  }
  double pps() const { return Median(per_call); }
};

struct Acc {
  Rate ipbm, pbm, drain;
};

class Fwd : public Scenario {
 public:
  const char* name() const override { return "fwd"; }

  Status Setup(const Inputs&) override {
    IPSA_ASSIGN_OR_RETURN(ipbm_, ipsa::bench::MakeRp4Setup(UseCase::kEcmp));
    IPSA_ASSIGN_OR_RETURN(pbm_, ipsa::bench::MakePisaSetup(UseCase::kEcmp));
    return ipsa::OkStatus();
  }

  Status Prepare(const Inputs& in) override {
    workers_ = in.workers;
    IPSA_ASSIGN_OR_RETURN(auto ref, ipsa::bench::MakeRp4Setup(UseCase::kEcmp));
    ref.device->SetExecMode(ipsa::arch::ExecMode::kInterpret);

    std::vector<Packet> traffic = EcmpTraffic(in.seed, kBatch * kBatches);
    for (size_t b = 0; b < kBatches; ++b) {
      batches_.emplace_back(traffic.begin() + static_cast<long>(b * kBatch),
                            traffic.begin() +
                                static_cast<long>((b + 1) * kBatch));
    }
    // Reference digests from the interpreter; pbm must agree with them.
    for (const auto& batch : batches_) {
      std::vector<Packet> a = batch, b = batch;
      IPSA_ASSIGN_OR_RETURN(
          auto ra, ref.device->ProcessBatch(std::span(a), kInPort));
      IPSA_ASSIGN_OR_RETURN(
          auto rb, pbm_.device->ProcessBatch(std::span(b), kInPort));
      ref_digest_.push_back(BatchDigest(a, ra));
      outcome.Check(BatchDigest(b, rb) == ref_digest_.back(),
                    "fwd: pbm and ipbm disagree at set-up");
    }
    for (size_t i = 0; i < kBurst; ++i) {
      burst_.push_back(traffic[i % traffic.size()]);
    }
    ref_drain_digest_ = DrainDigest(*ref.device, 1, nullptr);

    // Canonical traffic (the repo's fixed workload seed) for the model-cycle
    // count, so it repeats exactly across benchmark seeds.
    ipsa::net::Workload canon(ipsa::bench::WorkloadFor(UseCase::kEcmp));
    for (size_t i = 0; i < kBatch; ++i) {
      canonical_.push_back(canon.NextPacket());
    }

    // Per-kind lookup keys, built from the workload's parsed packets for the
    // tables each packet actually applies (ProcessTrace). Metadata fields are
    // taken at zero except the ingress port: the probe times LookupInto on
    // realistic key shapes, not the pipeline's exact metadata.
    for (const auto& d : ipbm_.controller->design().metadata) {
      IPSA_RETURN_IF_ERROR(meta_proto_.Declare(d.name, d.width_bits));
    }
    if (meta_proto_.Has("ingress_port")) {
      IPSA_RETURN_IF_ERROR(meta_proto_.WriteUint("ingress_port", kInPort));
    }
    const ipsa::arch::TableCatalog& cat = ipbm_.device->catalog();
    uint64_t traced_pkts = 0;
    for (const Packet& p : traffic) {
      Packet run = p, parse = p;
      ipsa::telemetry::ProcessTrace trace;
      IPSA_RETURN_IF_ERROR(
          ipbm_.device->Process(run, kInPort, &trace).status());
      ++traced_pkts;
      ipsa::arch::PacketContext ctx(parse, ipbm_.device->headers(),
                                    meta_proto_);
      IPSA_RETURN_IF_ERROR(ipsa::arch::ParseEngine::ParseAll(ctx).status());
      for (const auto& step : trace.steps) {
        if (step.table.empty()) continue;
        IPSA_ASSIGN_OR_RETURN(ipsa::table::MatchTable * t, cat.Get(step.table));
        const char* kind = KindName(t->spec().match_kind);
        lookups_[kind] += 1;
        auto key = cat.BuildKey(step.table, ctx);
        if (key.ok() && keys_[kind].size() < 512) {
          keys_[kind].push_back({t, *key});
        }
      }
    }
    for (auto& [kind, n] : lookups_) n /= static_cast<double>(traced_pkts);
    SnapshotHits(hits0_, misses0_);
    return ipsa::OkStatus();
  }

  void RunSlice(int64_t budget_ns, double speed, Tracer* tracer) override {
    Acc& acc = acc_[tracer != nullptr];
    speed_ = speed;
    const int64_t end = NowNs() + budget_ns;
    while (NowNs() < end) {
      const size_t k = next_++ % kBatches;
      const uint64_t id = next_;
      TimedBatch(*ipbm_.device, k, acc.ipbm, tracer, "ipsa.ProcessBatch", id,
                 true);
      TimedBatch(*pbm_.device, k, acc.pbm, tracer, "pisa.ProcessBatch", id,
                 false);
      TimedDrain(workers_, acc.drain, tracer, "ipsa.RunToCompletion.W", id);
      if (tracer) Probes(*tracer, k, id);
    }
  }

  void Report(bool traced, MetricMap& out) const override {
    const Acc& a = acc_[traced];
    out["pps"] = {a.ipbm.pps(), "pkt/s"};
    out["pbm_pps"] = {a.pbm.pps(), "pkt/s"};
    out["drain_pps"] = {a.drain.pps(), "pkt/s"};
  }

  void ReportLayers(const Tracer& tracer, std::vector<LedgerLine>& lines,
                    std::vector<Explained>& explained) const override {
    auto tot = TotalTimeNs(tracer.spans());
    auto per = [&](const char* span, uint64_t count) {
      auto it = tot.find(span);
      return it == tot.end() || count == 0
                 ? 0.0
                 : it->second.total_ns / static_cast<double>(count);
    };
    const double batch_ns = per("ipsa.ProcessBatch", traced_ipbm_pkts_);
    const double parse_ns = per("arch.ParseAll", parsed_pkts_);
    double lookup_ns_per_pkt = 0;
    std::map<std::string, double> kind_ns;
    for (const auto& [kind, keys] : keys_) {
      auto n = probe_lookups_.find(kind);
      kind_ns[kind] = per(("table." + kind).c_str(),
                          n == probe_lookups_.end() ? 0 : n->second);
      lookup_ns_per_pkt += kind_ns[kind] * lookups_.at(kind);
    }
    double lookups_per_pkt = 0;
    for (const auto& [kind, n] : lookups_) lookups_per_pkt += n;
    uint64_t hits = 0, misses = 0;
    SnapshotHits(hits, misses);
    const double dh = static_cast<double>(hits - hits0_);
    const double dm = static_cast<double>(misses - misses0_);
    const double drain_1w = per("ipsa.RunToCompletion.1", drain_1w_pkts_);
    const double drain_w = per("ipsa.RunToCompletion.W", acc_[1].drain.pkts);
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    lines.push_back({"ipsa.batch_ns_per_pkt", batch_ns, "ns", "pps"});
    lines.push_back({"pisa.batch_ns_per_pkt",
                     per("pisa.ProcessBatch", acc_[1].pbm.pkts), "ns",
                     "pbm_pps"});
    lines.push_back({"arch.parse_ns_per_pkt", parse_ns, "ns", "pps"});
    for (const char* kind : {"exact", "lpm", "selector"}) {
      double v = kind_ns.count(kind) ? kind_ns.at(kind) : 0;
      lines.push_back(
          {std::string("table.") + kind + "_lookup_ns", v, "ns", "pps"});
    }
    lines.push_back(
        {"table.lookups_per_pkt", lookups_per_pkt, "count", "pps"});
    lines.push_back({"table.hit_ratio", ratio(dh, dh + dm), "ratio", "pps"});
    lines.push_back({"ipsa.stage_other_ns_per_pkt",
                     batch_ns - parse_ns - lookup_ns_per_pkt, "ns", "pps"});
    lines.push_back({"fwd.allocs_per_pkt",
                     ratio(static_cast<double>(allocs_),
                           static_cast<double>(traced_ipbm_pkts_)),
                     "count", "pps"});
    lines.push_back({"hw.model_cycles_per_pkt",
                     ratio(static_cast<double>(canon_cycles_),
                           static_cast<double>(canon_pkts_)),
                     "cycles", "none"});
    lines.push_back(
        {"ipsa.drain_ns_per_pkt_1w", drain_1w, "ns", "drain_pps"});
    lines.push_back({"ipsa.drain_scaling", ratio(drain_1w, drain_w), "ratio",
                     "drain_pps"});
    explained.push_back({"pps (ipbm batch: parse + lookups per packet)",
                         batch_ns, parse_ns + lookup_ns_per_pkt});
  }

 private:
  static uint64_t DrainDigestOf(ipsa::net::PortSet& ports) {
    TxDigest d;
    for (uint32_t p = 0; p < ports.count(); ++p) {
      while (auto pkt = ports.port(p).tx().Pop()) d.Add(p, pkt->bytes());
    }
    return d.value();
  }

  void PushBurst(ipsa::net::PortSet& ports) {
    for (size_t i = 0; i < burst_.size(); ++i) {
      ports.port(static_cast<uint32_t>(i) % ports.count()).rx().Push(burst_[i]);
    }
  }

  uint64_t DrainDigest(ipsa::ipbm::IpbmSwitch& dev, uint32_t workers,
                       double* ns) {
    PushBurst(dev.ports());
    int64_t t0 = NowNs();
    auto r = dev.RunToCompletion(workers);
    int64_t t1 = NowNs();
    if (ns) *ns = static_cast<double>(t1 - t0);
    uint64_t d = DrainDigestOf(dev.ports());
    return r.ok() && *r == burst_.size() ? d : 0;
  }

  template <typename Device>
  void TimedBatch(Device& dev, size_t k, Rate& rate, Tracer* tracer,
                  const char* span, uint64_t id, bool is_ipbm) {
    scratch_ = batches_[k];  // processing edits headers in place
    uint64_t a0 = 0;
    if (tracer && is_ipbm) {
      a0 = AllocCount();
      SetAllocCounting(true);
    }
    int64_t t0 = NowNs();
    auto r = dev.ProcessBatch(std::span(scratch_), kInPort);
    int64_t t1 = NowNs();
    if (tracer) {
      tracer->Record(span, -1, id, t0, t1);
      if (is_ipbm) {
        SetAllocCounting(false);
        allocs_ += AllocCount() - a0;
        traced_ipbm_pkts_ += scratch_.size();
      }
    }
    rate.Add(scratch_.size(), static_cast<double>(t1 - t0) * speed_);
    outcome.Check(r.ok() && BatchDigest(scratch_, *r) == ref_digest_[k],
                  std::string("fwd: ") + span +
                      " output differs from the reference");
  }

  void TimedDrain(uint32_t workers, Rate& rate, Tracer* tracer,
                  const char* span, uint64_t id) {
    double ns = 0;
    int64_t t0 = NowNs();
    uint64_t d = DrainDigest(*ipbm_.device, workers, &ns);
    if (tracer) tracer->Record(span, -1, id, t0, t0 + static_cast<int64_t>(ns));
    rate.Add(burst_.size(), ns * speed_);
    outcome.Check(d == ref_drain_digest_,
                  "fwd: drain TX differs from the reference");
  }

  // Layer probes of the traced slices, on the same packets and tables.
  void Probes(Tracer& tracer, size_t k, uint64_t id) {
    // Single-worker drain, for the scaling ratio.
    double ns = 0;
    int64_t t0 = NowNs();
    uint64_t d = DrainDigest(*ipbm_.device, 1, &ns);
    tracer.Record("ipsa.RunToCompletion.1", -1, id, t0,
                  t0 + static_cast<int64_t>(ns));
    drain_1w_pkts_ += burst_.size();
    outcome.Check(d == ref_drain_digest_,
                  "fwd: 1-worker drain differs from the reference");

    scratch_ = batches_[k];
    {
      ScopedSpan s(&tracer, "arch.ParseAll", id);
      for (Packet& p : scratch_) {
        parse_ctx_.Rebind(p, ipbm_.device->headers());
        parse_ctx_.metadata() = meta_proto_;
        (void)ipsa::arch::ParseEngine::ParseAll(parse_ctx_);
      }
    }
    parsed_pkts_ += scratch_.size();

    ipsa::table::LookupResult res;
    for (const auto& [kind, keys] : keys_) {
      std::string span = "table." + kind;
      ScopedSpan s(&tracer, span.c_str(), id);
      for (const auto& [table, key] : keys) table->LookupInto(key, res);
      probe_lookups_[kind] += keys.size();
    }

    std::vector<Packet> canon = canonical_;
    uint64_t c0 = ipbm_.device->stats().total_cycles;
    auto r = ipbm_.device->ProcessBatch(std::span(canon), kInPort);
    if (r.ok()) {
      canon_cycles_ += ipbm_.device->stats().total_cycles - c0;
      canon_pkts_ += canon.size();
    }
  }

  void SnapshotHits(uint64_t& hits, uint64_t& misses) const {
    hits = misses = 0;
    const auto& cat = ipbm_.device->catalog();
    for (const std::string& name : cat.TableNames()) {
      auto t = cat.Get(name);
      if (!t.ok()) continue;
      hits += (*t)->hits();
      misses += (*t)->misses();
    }
  }

  uint32_t workers_ = 1;
  ipsa::bench::Rp4Setup ipbm_;
  ipsa::bench::PisaSetup pbm_;
  std::vector<std::vector<Packet>> batches_;
  std::vector<uint64_t> ref_digest_;
  std::vector<Packet> burst_;
  uint64_t ref_drain_digest_ = 0;
  std::vector<Packet> canonical_;
  std::vector<Packet> scratch_;
  size_t next_ = 0;
  double speed_ = 1;
  Acc acc_[2];

  // Traced-slice state.
  ipsa::arch::Metadata meta_proto_;
  ipsa::arch::PacketContext parse_ctx_;
  std::map<std::string, double> lookups_;  // per kind, per packet
  std::map<std::string, std::vector<std::pair<const ipsa::table::MatchTable*,
                                              ipsa::mem::BitString>>>
      keys_;
  std::map<std::string, uint64_t> probe_lookups_;
  uint64_t hits0_ = 0, misses0_ = 0;
  uint64_t allocs_ = 0;
  uint64_t traced_ipbm_pkts_ = 0;
  uint64_t parsed_pkts_ = 0;
  uint64_t drain_1w_pkts_ = 0;
  uint64_t canon_cycles_ = 0, canon_pkts_ = 0;
};

}  // namespace

std::unique_ptr<Scenario> MakeFwd() { return std::make_unique<Fwd>(); }

}  // namespace perfbench
