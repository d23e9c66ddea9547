#include "testing/differential.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "arch/compiled_stage.h"
#include "controller/controller.h"
#include "controller/runtime_api.h"
#include "ipsa/ipbm.h"
#include "net/packet.h"
#include "pisa/pisa_switch.h"
#include "table/table.h"
#include "telemetry/collector.h"

namespace ipsa::testing {
namespace {

// table name -> (hits, misses), read from the device catalog.
using TableStats = std::map<std::string, std::pair<uint64_t, uint64_t>>;

struct PktResult {
  bool dropped = false;
  bool marked = false;
  uint32_t egress = 0;
  uint64_t cycles = 0;
  std::vector<uint8_t> bytes;  // packet contents after processing
};

// Everything one configuration observed while replaying the case.
struct ConfigRun {
  std::string name;
  std::vector<PktResult> pkts;  // per-packet configs only (empty for parallel)
  std::vector<std::vector<std::vector<uint8_t>>> tx;  // port -> frames
  std::vector<TableStats> seg_deltas;  // hit/miss deltas per traffic segment
  telemetry::MetricsShard shard;
  uint64_t epoch_delta = 0;  // config-epoch advance across the update op
  bool saw_update = false;
  uint64_t updates = 0;  // collector's update-window count at end of run
  telemetry::DeviceStats device;
};

Result<TableStats> ReadTableStats(const arch::TableCatalog& catalog) {
  TableStats out;
  for (const std::string& name : catalog.TableNames()) {
    IPSA_ASSIGN_OR_RETURN(table::MatchTable * t, catalog.Get(name));
    out[name] = {t->hits(), t->misses()};
  }
  return out;
}

TableStats Delta(const TableStats& before, const TableStats& after) {
  TableStats out;
  for (const auto& [name, counts] : after) {
    auto it = before.find(name);
    uint64_t h0 = it == before.end() ? 0 : it->second.first;
    uint64_t m0 = it == before.end() ? 0 : it->second.second;
    out[name] = {counts.first - h0, counts.second - m0};
  }
  return out;
}

// Builds a table::Entry from an EntryOp against the controller's ApiSpec.
// Widths for action arguments come from the spec, so the op only carries
// integer values.
Result<table::Entry> BuildEntryFor(const compiler::ApiSpec& api,
                                   const EntryOp& e) {
  const compiler::TableApi* spec = api.Find(e.table);
  if (spec == nullptr) {
    return NotFound("entry op targets unknown table '" + e.table + "'");
  }
  auto ait = spec->actions.find(e.action);
  if (ait == spec->actions.end()) {
    return NotFound("entry op targets unknown action '" + e.action +
                    "' on table '" + e.table + "'");
  }
  const std::vector<uint32_t>& widths = ait->second.second;
  if (widths.size() != e.args.size()) {
    return InvalidArgument("entry op arg count mismatch for '" + e.action +
                           "'");
  }
  std::vector<mem::BitString> args;
  args.reserve(e.args.size());
  for (size_t i = 0; i < e.args.size(); ++i) {
    args.push_back(controller::Bits(widths[i], e.args[i]));
  }
  controller::EntryBuilder builder(api);
  if (e.bucket >= 0) {
    return builder.BuildSelectorMember(
        e.table, static_cast<uint32_t>(e.bucket), e.action, args);
  }
  std::vector<controller::KeyValue> keys;
  keys.reserve(e.keys.size());
  for (uint64_t k : e.keys) keys.emplace_back(k);
  std::vector<controller::KeyValue> mask;
  mask.reserve(e.mask.size());
  for (uint64_t m : e.mask) mask.emplace_back(m);
  return builder.Build(e.table, e.action, keys, args, e.prefix_len,
                       e.priority, mask);
}

// A configuration under test: one device + controller pair plus how packets
// are driven through it (per-packet Process or batch run-to-completion).
class Harness {
 public:
  virtual ~Harness() = default;
  virtual Status Load(const CaseFile& c) = 0;
  virtual Status ApplyEntry(const EntryOp& e) = 0;
  virtual Status Update(const CaseFile& c) = 0;
  virtual bool per_packet() const { return true; }
  virtual Result<PktResult> RunPacket(const PacketOp& p) = 0;
  virtual Status RunBatch(const std::vector<const PacketOp*>& pkts) = 0;
  virtual const arch::TableCatalog& catalog() const = 0;
  virtual net::PortSet& ports() = 0;
  virtual uint64_t epoch() const = 0;
  virtual telemetry::Collector& collector() = 0;
  virtual const telemetry::DeviceStats& device_stats() const = 0;
};

template <typename Dev>
PktResult ToPktResult(const telemetry::ProcessResult& r,
                      const net::Packet& pkt) {
  PktResult out;
  out.dropped = r.dropped;
  out.marked = r.marked;
  out.egress = r.egress_port;
  out.cycles = r.cycles;
  auto bytes = pkt.bytes();
  out.bytes.assign(bytes.begin(), bytes.end());
  return out;
}

class PbmHarness : public Harness {
 public:
  explicit PbmHarness(arch::ExecMode mode,
                      const pisa::PisaOptions& options = {},
                      const compiler::PisaBackendOptions& compiler_options = {})
      : dev_(options), ctl_(dev_, compiler_options), mode_(mode) {}

  Status Load(const CaseFile& c) override {
    telemetry::TelemetryConfig tc;
    tc.enabled = true;
    dev_.ConfigureTelemetry(tc);
    dev_.SetExecMode(mode_);
    IPSA_ASSIGN_OR_RETURN(auto timing, ctl_.CompileAndLoad(c.p4_v1));
    (void)timing;
    return OkStatus();
  }

  Status ApplyEntry(const EntryOp& e) override {
    IPSA_ASSIGN_OR_RETURN(table::Entry entry, BuildEntryFor(ctl_.api(), e));
    return ctl_.AddEntry(e.table, entry);
  }

  Status Update(const CaseFile& c) override {
    if (c.p4_v2.empty()) return InvalidArgument("update op without p4_v2");
    IPSA_ASSIGN_OR_RETURN(auto timing, ctl_.CompileAndLoad(c.p4_v2));
    (void)timing;
    return OkStatus();
  }

  Result<PktResult> RunPacket(const PacketOp& p) override {
    net::Packet pkt{std::span<const uint8_t>(p.bytes)};
    IPSA_ASSIGN_OR_RETURN(auto r, dev_.Process(pkt, p.in_port));
    return ToPktResult<pisa::PisaSwitch>(r, pkt);
  }

  Status RunBatch(const std::vector<const PacketOp*>&) override {
    return Unimplemented("pbm harness is per-packet");
  }

  const arch::TableCatalog& catalog() const override {
    return dev_.catalog();
  }
  net::PortSet& ports() override { return dev_.ports(); }
  uint64_t epoch() const override { return dev_.config_epoch(); }
  telemetry::Collector& collector() override { return dev_.telemetry(); }
  const telemetry::DeviceStats& device_stats() const override {
    return dev_.stats();
  }

 private:
  pisa::PisaSwitch dev_;
  controller::PisaFlowController ctl_;
  arch::ExecMode mode_;
};

class IpbmHarness : public Harness {
 public:
  enum class Mode { kInterp, kSpec, kParallel };

  IpbmHarness(Mode mode, uint32_t workers,
              const ipbm::IpbmOptions& options = {},
              const compiler::Rp4bcOptions& compiler_options = {})
      : dev_(options), ctl_(dev_, compiler_options), mode_(mode),
        workers_(workers) {}

  Status Load(const CaseFile& c) override {
    telemetry::TelemetryConfig tc;
    tc.enabled = true;
    dev_.ConfigureTelemetry(tc);
    // kSpec and kParallel both run the compiled stages; kSpec one packet
    // at a time, kParallel through the multi-worker batch executor.
    dev_.SetExecMode(mode_ == Mode::kInterp ? arch::ExecMode::kInterpret
                                            : arch::ExecMode::kSpecialize);
    IPSA_ASSIGN_OR_RETURN(auto timing, ctl_.LoadBaseFromP4(c.p4_v1));
    (void)timing;
    return OkStatus();
  }

  Status ApplyEntry(const EntryOp& e) override {
    IPSA_ASSIGN_OR_RETURN(table::Entry entry, BuildEntryFor(ctl_.api(), e));
    return ctl_.AddEntry(e.table, entry);
  }

  Status Update(const CaseFile& c) override {
    if (c.script.empty()) return InvalidArgument("update op without script");
    controller::SnippetResolver resolver =
        [&c](const std::string&) -> Result<std::string> { return c.snippet; };
    IPSA_ASSIGN_OR_RETURN(auto timing, ctl_.ApplyScript(c.script, resolver));
    (void)timing;
    return OkStatus();
  }

  bool per_packet() const override { return mode_ != Mode::kParallel; }

  Result<PktResult> RunPacket(const PacketOp& p) override {
    net::Packet pkt{std::span<const uint8_t>(p.bytes)};
    IPSA_ASSIGN_OR_RETURN(auto r, dev_.Process(pkt, p.in_port));
    return ToPktResult<ipbm::IpbmSwitch>(r, pkt);
  }

  Status RunBatch(const std::vector<const PacketOp*>& pkts) override {
    for (const PacketOp* p : pkts) {
      if (p->in_port >= dev_.ports().count()) {
        // The per-packet configs count this as a processed packet with
        // whatever the pipeline does to an arbitrary port id; the generator
        // never emits out-of-range ports, so reject loudly if one appears.
        return InvalidArgument("packet op in_port out of range");
      }
      if (!dev_.ports().port(p->in_port).rx().Push(
              net::Packet{std::span<const uint8_t>(p->bytes)})) {
        return ResourceExhausted("rx queue overflow");
      }
    }
    IPSA_ASSIGN_OR_RETURN(uint32_t n, dev_.RunToCompletion(workers_));
    (void)n;
    return OkStatus();
  }

  const arch::TableCatalog& catalog() const override {
    return dev_.catalog();
  }
  net::PortSet& ports() override { return dev_.ports(); }
  uint64_t epoch() const override { return dev_.config_epoch(); }
  telemetry::Collector& collector() override { return dev_.telemetry(); }
  const telemetry::DeviceStats& device_stats() const override {
    return dev_.stats();
  }

 private:
  ipbm::IpbmSwitch dev_;
  controller::Rp4FlowController ctl_;
  Mode mode_;
  uint32_t workers_;
};

// Replays the whole op schedule through one configuration. Packets between
// non-packet ops form a "segment"; each segment is flushed before the next
// entry/update op so table hit/miss deltas line up across configurations
// even though pbm reloads reset the raw counters.
Result<ConfigRun> RunOne(Harness& h, std::string name, const CaseFile& c,
                         uint32_t workers) {
  (void)workers;
  ConfigRun run;
  run.name = std::move(name);
  IPSA_RETURN_IF_ERROR(h.Load(c));
  run.tx.resize(h.ports().count());
  IPSA_ASSIGN_OR_RETURN(TableStats baseline, ReadTableStats(h.catalog()));

  std::vector<const PacketOp*> pending;
  auto flush = [&]() -> Status {
    if (pending.empty()) {
      // Keep the segment structure without touching the device: an idle
      // RunToCompletion would still trigger EnsureCompiled/SetStages, which
      // a per-packet configuration with no traffic never does, and the
      // stage-slot vectors would compare unequal for spurious reasons.
      run.seg_deltas.push_back(TableStats{});
      return OkStatus();
    }
    if (h.per_packet()) {
      // Process in RX drain order: ports ascending, arrival order within a
      // port — the order RunToCompletion visits them, so TX streams and all
      // counters agree with the batch configuration bit for bit.
      std::vector<const PacketOp*> ordered = pending;
      std::stable_sort(ordered.begin(), ordered.end(),
                       [](const PacketOp* a, const PacketOp* b) {
                         return a->in_port < b->in_port;
                       });
      for (const PacketOp* p : ordered) {
        IPSA_ASSIGN_OR_RETURN(PktResult r, h.RunPacket(*p));
        if (!r.dropped && r.egress < h.ports().count()) {
          run.tx[r.egress].push_back(r.bytes);
        }
        run.pkts.push_back(std::move(r));
      }
    } else {
      IPSA_RETURN_IF_ERROR(h.RunBatch(pending));
      for (uint32_t port = 0; port < h.ports().count(); ++port) {
        while (auto pkt = h.ports().port(port).tx().Pop()) {
          auto bytes = pkt->bytes();
          run.tx[port].emplace_back(bytes.begin(), bytes.end());
        }
      }
    }
    pending.clear();
    IPSA_ASSIGN_OR_RETURN(TableStats current, ReadTableStats(h.catalog()));
    run.seg_deltas.push_back(Delta(baseline, current));
    baseline = std::move(current);
    return OkStatus();
  };

  for (const Op& op : c.ops) {
    if (op.kind == Op::Kind::kPacket) {
      pending.push_back(&op.packet);
      continue;
    }
    IPSA_RETURN_IF_ERROR(flush());
    if (op.kind == Op::Kind::kEntry) {
      IPSA_RETURN_IF_ERROR(h.ApplyEntry(op.entry));
    } else {
      uint64_t before = h.epoch();
      IPSA_RETURN_IF_ERROR(h.Update(c));
      run.epoch_delta = h.epoch() - before;
      run.saw_update = true;
    }
    // Re-baseline: a pbm reload just zeroed the raw counters (tables were
    // rebuilt), so deltas must restart from the post-op state everywhere.
    IPSA_ASSIGN_OR_RETURN(baseline, ReadTableStats(h.catalog()));
  }
  IPSA_RETURN_IF_ERROR(flush());

  if (telemetry::MetricsShard* shard = h.collector().shard()) {
    run.shard = *shard;
  }
  telemetry::MetricsSnapshot snap =
      h.collector().Snapshot(h.epoch(), h.device_stats());
  run.updates = snap.updates;
  run.device = h.device_stats();
  return run;
}

std::string HexDump(const std::vector<uint8_t>& bytes) {
  std::string out;
  char buf[4];
  for (uint8_t b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

// --- comparison matrix ------------------------------------------------------

std::string ComparePackets(const ConfigRun& a, const ConfigRun& b) {
  std::ostringstream out;
  if (a.pkts.size() != b.pkts.size()) {
    out << a.name << " processed " << a.pkts.size() << " packets, " << b.name
        << " processed " << b.pkts.size();
    return out.str();
  }
  for (size_t i = 0; i < a.pkts.size(); ++i) {
    const PktResult& pa = a.pkts[i];
    const PktResult& pb = b.pkts[i];
    if (pa.dropped != pb.dropped || pa.marked != pb.marked ||
        pa.egress != pb.egress || pa.bytes != pb.bytes) {
      out << "packet " << i << ": " << a.name << " (dropped=" << pa.dropped
          << " marked=" << pa.marked << " egress=" << pa.egress << " bytes="
          << HexDump(pa.bytes) << ") vs " << b.name
          << " (dropped=" << pb.dropped << " marked=" << pb.marked
          << " egress=" << pb.egress << " bytes=" << HexDump(pb.bytes) << ")";
      return out.str();
    }
  }
  return "";
}

std::string CompareCycles(const ConfigRun& a, const ConfigRun& b) {
  std::ostringstream out;
  for (size_t i = 0; i < a.pkts.size() && i < b.pkts.size(); ++i) {
    if (a.pkts[i].cycles != b.pkts[i].cycles) {
      out << "packet " << i << " cycles: " << a.name << "="
          << a.pkts[i].cycles << " vs " << b.name << "=" << b.pkts[i].cycles;
      return out.str();
    }
  }
  return "";
}

std::string CompareTx(const ConfigRun& a, const ConfigRun& b) {
  std::ostringstream out;
  if (a.tx.size() != b.tx.size()) {
    out << "port counts differ: " << a.name << "=" << a.tx.size() << " vs "
        << b.name << "=" << b.tx.size();
    return out.str();
  }
  for (size_t port = 0; port < a.tx.size(); ++port) {
    if (a.tx[port].size() != b.tx[port].size()) {
      out << "tx[" << port << "]: " << a.name << " sent "
          << a.tx[port].size() << " frames, " << b.name << " sent "
          << b.tx[port].size();
      return out.str();
    }
    for (size_t i = 0; i < a.tx[port].size(); ++i) {
      if (a.tx[port][i] != b.tx[port][i]) {
        out << "tx[" << port << "] frame " << i << ": " << a.name << "="
            << HexDump(a.tx[port][i]) << " vs " << b.name << "="
            << HexDump(b.tx[port][i]);
        return out.str();
      }
    }
  }
  return "";
}

std::string CompareSegments(const ConfigRun& a, const ConfigRun& b) {
  std::ostringstream out;
  if (a.seg_deltas.size() != b.seg_deltas.size()) {
    out << "segment counts differ: " << a.name << "=" << a.seg_deltas.size()
        << " vs " << b.name << "=" << b.seg_deltas.size();
    return out.str();
  }
  for (size_t s = 0; s < a.seg_deltas.size(); ++s) {
    if (a.seg_deltas[s] == b.seg_deltas[s]) continue;
    out << "segment " << s << " table hit/miss deltas differ (" << a.name
        << " vs " << b.name << "):";
    for (const auto& [name, counts] : a.seg_deltas[s]) {
      auto it = b.seg_deltas[s].find(name);
      std::pair<uint64_t, uint64_t> other =
          it == b.seg_deltas[s].end() ? std::pair<uint64_t, uint64_t>{0, 0}
                                      : it->second;
      if (counts != other) {
        out << " " << name << "=" << counts.first << "/" << counts.second
            << " vs " << other.first << "/" << other.second;
      }
    }
    return out.str();
  }
  return "";
}

std::string ComparePortCounters(const ConfigRun& a, const ConfigRun& b) {
  std::ostringstream out;
  size_t n = std::min(a.shard.ports.size(), b.shard.ports.size());
  for (size_t p = 0; p < n; ++p) {
    const telemetry::PortMetrics& ma = a.shard.ports[p];
    const telemetry::PortMetrics& mb = b.shard.ports[p];
    if (ma.packets_in != mb.packets_in || ma.packets_out != mb.packets_out ||
        ma.packets_dropped != mb.packets_dropped ||
        ma.packets_marked != mb.packets_marked) {
      out << "port " << p << " telemetry counters differ: " << a.name
          << " in/out/drop/mark=" << ma.packets_in << "/" << ma.packets_out
          << "/" << ma.packets_dropped << "/" << ma.packets_marked << " vs "
          << b.name << " " << mb.packets_in << "/" << mb.packets_out << "/"
          << mb.packets_dropped << "/" << mb.packets_marked;
      return out.str();
    }
  }
  return "";
}

std::string CompareDeviceCounters(const ConfigRun& a, const ConfigRun& b) {
  std::ostringstream out;
  if (a.device.packets_in != b.device.packets_in ||
      a.device.packets_out != b.device.packets_out ||
      a.device.packets_dropped != b.device.packets_dropped ||
      a.device.packets_marked != b.device.packets_marked) {
    out << "device counters differ: " << a.name << " in/out/drop/mark="
        << a.device.packets_in << "/" << a.device.packets_out << "/"
        << a.device.packets_dropped << "/" << a.device.packets_marked
        << " vs " << b.name << " " << b.device.packets_in << "/"
        << b.device.packets_out << "/" << b.device.packets_dropped << "/"
        << b.device.packets_marked;
  }
  return out.str();
}

// Largest `size = N;` declared in the case's programs. The rendered text is
// scanned (rather than threading GeneratedCase through) so replayed corpus
// files get the same pool sizing as freshly generated cases.
uint32_t MaxDeclaredTableSize(const CaseFile& c) {
  uint32_t max_size = 0;
  for (const std::string* text : {&c.p4_v1, &c.p4_v2}) {
    size_t at = 0;
    while ((at = text->find("size = ", at)) != std::string::npos) {
      at += 7;
      uint64_t v = 0;
      while (at < text->size() && (*text)[at] >= '0' && (*text)[at] <= '9' &&
             v < (1ull << 32)) {
        v = v * 10 + static_cast<uint64_t>((*text)[at] - '0');
        ++at;
      }
      max_size = std::max(
          max_size,
          static_cast<uint32_t>(std::min<uint64_t>(v, (1ull << 32) - 1)));
    }
  }
  return max_size;
}

}  // namespace

Result<DiffReport> RunCase(const CaseFile& c, const DiffOptions& options) {
  // Scoped fault flag so an early return (or a harness error) never leaks
  // the perturbation into subsequent cases.
  struct FaultGuard {
    explicit FaultGuard(bool on) : prev(arch::CompiledStageFaultEnabled()) {
      arch::SetCompiledStageFault(on);
    }
    ~FaultGuard() { arch::SetCompiledStageFault(prev); }
    bool prev;
  } guard(options.inject_fault);

  // Devices run at their default sizes unless the case declares a table too
  // big for the default pools (the million-entry sweep). Then the pools are
  // deepened to fit: ipbm grows its one shared pool by roughly the table's
  // footprint, while pbm must give EVERY stage cluster a full-size slice —
  // its memory is prorated per stage and the table's placement is the
  // compiler's choice, which is exactly the proration cost the paper
  // contrasts against. Stage counts drop to what generated programs can
  // need (4 ingress / 2 egress apply blocks, plus slack) to bound the
  // eager pool allocation.
  const uint32_t max_size = MaxDeclaredTableSize(c);
  pisa::PisaOptions pbm_options;
  compiler::PisaBackendOptions pbm_compiler;
  ipbm::IpbmOptions ipbm_options;
  compiler::Rp4bcOptions ipbm_compiler;
  if (max_size > 65536) {
    ipbm_options.sram_depth = 8192;
    ipbm_options.sram_blocks = max_size / 8192 + 32;
    ipbm_compiler.sram_depth = ipbm_options.sram_depth;
    ipbm_compiler.sram_blocks = ipbm_options.sram_blocks;
    pbm_options.physical_ingress_stages = 5;
    pbm_options.physical_egress_stages = 3;
    pbm_options.sram_depth = 16384;
    pbm_options.sram_blocks_per_stage = max_size / 16384 + 8;
    pbm_compiler.physical_ingress_stages = pbm_options.physical_ingress_stages;
    pbm_compiler.physical_egress_stages = pbm_options.physical_egress_stages;
    pbm_compiler.sram_depth = pbm_options.sram_depth;
    pbm_compiler.sram_blocks_per_stage = pbm_options.sram_blocks_per_stage;
  }

  PbmHarness pbm_i(arch::ExecMode::kInterpret, pbm_options, pbm_compiler);
  PbmHarness pbm_s(arch::ExecMode::kSpecialize, pbm_options, pbm_compiler);
  IpbmHarness ipbm_i(IpbmHarness::Mode::kInterp, options.parallel_workers,
                     ipbm_options, ipbm_compiler);
  IpbmHarness ipbm_s(IpbmHarness::Mode::kSpec, options.parallel_workers,
                     ipbm_options, ipbm_compiler);
  IpbmHarness ipbm_p(IpbmHarness::Mode::kParallel, options.parallel_workers,
                     ipbm_options, ipbm_compiler);

  // Indices into `runs`: pbm configs 0-1, ipbm configs 2-4.
  std::vector<std::pair<Harness*, std::string>> configs = {
      {&pbm_i, "pbm-interp"},   {&pbm_s, "pbm-spec"},
      {&ipbm_i, "ipbm-interp"}, {&ipbm_s, "ipbm-spec"},
      {&ipbm_p, "ipbm-parallel"},
  };

  std::vector<ConfigRun> runs;
  runs.reserve(configs.size());
  for (auto& [harness, name] : configs) {
    auto run = RunOne(*harness, name, c, options.parallel_workers);
    if (!run.ok()) {
      return Status(run.status().code(),
                    name + ": " + std::string(run.status().message()));
    }
    runs.push_back(std::move(*run));
  }

  DiffReport report;
  auto fail = [&](std::string detail) {
    if (!report.diverged) {
      report.diverged = true;
      report.detail = std::move(detail);
    }
  };

  // Per-packet results across the four per-packet configurations
  // (ipbm-parallel reorders completion, so it is excluded here and held to
  // the stream-level comparisons below).
  for (size_t i = 1; i < 4; ++i) {
    if (std::string d = ComparePackets(runs[0], runs[i]); !d.empty()) {
      fail(d);
      return report;
    }
  }
  // TX streams, per-segment table deltas, and aggregate packet counters
  // across all five configurations.
  for (size_t i = 1; i < runs.size(); ++i) {
    if (std::string d = CompareTx(runs[0], runs[i]); !d.empty()) {
      fail(d);
      return report;
    }
    if (std::string d = CompareSegments(runs[0], runs[i]); !d.empty()) {
      fail(d);
      return report;
    }
    if (std::string d = ComparePortCounters(runs[0], runs[i]); !d.empty()) {
      fail(d);
      return report;
    }
    if (std::string d = CompareDeviceCounters(runs[0], runs[i]); !d.empty()) {
      fail(d);
      return report;
    }
  }
  // Update visibility: every configuration that saw the update op must have
  // advanced its config epoch and recorded an update window.
  for (const ConfigRun& r : runs) {
    if (!r.saw_update) continue;
    if (r.epoch_delta == 0) {
      fail(r.name + ": config epoch did not advance across the update");
      return report;
    }
    if (r.updates == 0) {
      fail(r.name + ": telemetry recorded no update window");
      return report;
    }
  }
  // Within an architecture every configuration matches its interpreter
  // exactly: per-packet cycle counts (the compiled stages charge exactly
  // the interpreter's cycle model; CompareCycles skips ipbm-parallel, which
  // records no per-packet results), full telemetry shards (cycle histograms
  // included), and the epoch advance and update count of the identical
  // command sequence.
  const std::pair<size_t, size_t> kSameArch[] = {{0, 1}, {2, 3}, {2, 4}};
  for (auto [ref, i] : kSameArch) {
    const ConfigRun& want = runs[ref];
    const ConfigRun& got = runs[i];
    if (std::string d = CompareCycles(want, got); !d.empty()) {
      fail(d);
      return report;
    }
    if (!(want.shard == got.shard)) {
      fail("telemetry shards differ between " + want.name + " and " +
           got.name);
      return report;
    }
    if (want.saw_update && want.epoch_delta != got.epoch_delta) {
      fail(want.name + " and " + got.name +
           " disagree on epoch advance across the update");
      return report;
    }
    if (want.updates != got.updates) {
      fail(want.name + " and " + got.name +
           " disagree on telemetry update count");
      return report;
    }
  }
  return report;
}

bool CaseFails(const CaseFile& c, const DiffOptions& options) {
  auto report = RunCase(c, options);
  if (!report.ok()) return true;
  return report->diverged;
}

namespace {

// --- shrinking ---------------------------------------------------------------

// True when the mutated spec still renders AND still fails: only then is the
// mutation kept. A mutation that breaks rendering is simply rejected.
bool StillFails(const GeneratedCase& g, const DiffOptions& options) {
  auto rendered = RenderCase(g);
  if (!rendered.ok()) return false;
  return CaseFails(*rendered, options);
}

GeneratedCase DropOpAt(const GeneratedCase& g, size_t index) {
  GeneratedCase out = g;
  out.ops.erase(out.ops.begin() + static_cast<ptrdiff_t>(index));
  return out;
}

bool HasUpdateOp(const GeneratedCase& g) {
  for (const Op& op : g.ops) {
    if (op.kind == Op::Kind::kUpdate) return true;
  }
  return false;
}

void DropUpdateOps(GeneratedCase& g) {
  std::vector<Op> kept;
  for (Op& op : g.ops) {
    if (op.kind != Op::Kind::kUpdate) kept.push_back(std::move(op));
  }
  g.ops = std::move(kept);
}

// Removes apply block `block_index` from the given control, along with its
// tables, every entry op addressing them, and — when the versioned action
// lives there — the update op (which could no longer render a snippet).
GeneratedCase DropBlock(const GeneratedCase& g, bool egress,
                        size_t block_index) {
  GeneratedCase out = g;
  ControlSpec& ctl = egress ? out.spec.egress : out.spec.ingress;

  std::vector<int> doomed = ctl.blocks[block_index].tables;
  std::sort(doomed.begin(), doomed.end());
  bool drops_versioned = false;
  std::vector<std::string> doomed_names;
  for (int t : doomed) {
    doomed_names.push_back(ctl.tables[t].name);
    for (const ActionSpec& a : ctl.tables[t].actions) {
      drops_versioned |= a.versioned;
    }
  }

  ctl.blocks.erase(ctl.blocks.begin() + static_cast<ptrdiff_t>(block_index));
  for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
    ctl.tables.erase(ctl.tables.begin() + *it);
  }
  // Remap surviving blocks' table indices past the removed tables.
  for (ApplyBlock& b : ctl.blocks) {
    for (int& t : b.tables) {
      int shift = 0;
      for (int d : doomed) {
        if (d < t) ++shift;
      }
      t -= shift;
    }
  }
  std::vector<Op> kept;
  for (Op& op : out.ops) {
    if (op.kind == Op::Kind::kEntry &&
        std::find(doomed_names.begin(), doomed_names.end(), op.entry.table) !=
            doomed_names.end()) {
      continue;
    }
    if (op.kind == Op::Kind::kUpdate && drops_versioned) continue;
    kept.push_back(std::move(op));
  }
  out.ops = std::move(kept);
  return out;
}

// Removes leaf header `index` (no children, no table scoped to it). Parent
// and scope indices above it shift down by one; instance names are stable so
// rendered references stay valid.
GeneratedCase DropHeader(const GeneratedCase& g, size_t index) {
  GeneratedCase out = g;
  out.spec.headers.erase(out.spec.headers.begin() +
                         static_cast<ptrdiff_t>(index));
  int idx = static_cast<int>(index);
  for (HeaderSpec& h : out.spec.headers) {
    if (h.parent > idx) --h.parent;
  }
  for (ControlSpec* ctl : {&out.spec.ingress, &out.spec.egress}) {
    for (TableSpec& t : ctl->tables) {
      if (t.scope > idx) --t.scope;
    }
  }
  return out;
}

bool HeaderIsDroppable(const ProgramSpec& spec, size_t index) {
  if (index == 0) return false;  // entry header anchors the parse graph
  int idx = static_cast<int>(index);
  for (const HeaderSpec& h : spec.headers) {
    if (h.parent == idx) return false;
  }
  for (const ControlSpec* ctl : {&spec.ingress, &spec.egress}) {
    for (const TableSpec& t : ctl->tables) {
      if (t.scope == idx) return false;
    }
  }
  return true;
}

}  // namespace

Result<CaseFile> ShrinkCase(const GeneratedCase& gen,
                            const DiffOptions& options) {
  GeneratedCase cur = gen;
  if (!StillFails(cur, options)) {
    return InvalidArgument("case passed to ShrinkCase does not fail");
  }

  bool changed = true;
  while (changed) {
    changed = false;

    // 0. Declared table sizes: a repro that fails with a 64-entry table is
    // far cheaper to replay than one needing million-entry pools, and doing
    // this first makes every later shrink trial cheap too.
    for (bool egress : {false, true}) {
      size_t ntables =
          (egress ? cur.spec.egress : cur.spec.ingress).tables.size();
      for (size_t t = 0; t < ntables; ++t) {
        ControlSpec& ctl = egress ? cur.spec.egress : cur.spec.ingress;
        if (ctl.tables[t].size <= 64) continue;
        GeneratedCase trial = cur;
        (egress ? trial.spec.egress : trial.spec.ingress).tables[t].size = 64;
        if (StillFails(trial, options)) {
          cur = std::move(trial);
          changed = true;
        }
      }
    }

    // 1. The update op (with its whole snippet machinery).
    if (HasUpdateOp(cur)) {
      GeneratedCase trial = cur;
      DropUpdateOps(trial);
      if (StillFails(trial, options)) {
        cur = std::move(trial);
        changed = true;
      }
    }

    // 2. Individual packet ops, then entry ops (descending keeps indices
    // stable while erasing).
    for (Op::Kind kind : {Op::Kind::kPacket, Op::Kind::kEntry}) {
      for (size_t i = cur.ops.size(); i-- > 0;) {
        if (cur.ops[i].kind != kind) continue;
        GeneratedCase trial = DropOpAt(cur, i);
        if (StillFails(trial, options)) {
          cur = std::move(trial);
          changed = true;
        }
      }
    }

    // 3. Whole apply blocks with their tables and entries.
    for (bool egress : {false, true}) {
      const ControlSpec& ctl = egress ? cur.spec.egress : cur.spec.ingress;
      for (size_t b = ctl.blocks.size(); b-- > 0;) {
        // A control must keep at least one block to stay renderable.
        const ControlSpec& now = egress ? cur.spec.egress : cur.spec.ingress;
        if (now.blocks.size() <= 1 || b >= now.blocks.size()) continue;
        GeneratedCase trial = DropBlock(cur, egress, b);
        if (StillFails(trial, options)) {
          cur = std::move(trial);
          changed = true;
        }
      }
    }

    // 4. Unreferenced leaf headers.
    for (size_t hdr = cur.spec.headers.size(); hdr-- > 0;) {
      if (!HeaderIsDroppable(cur.spec, hdr)) continue;
      GeneratedCase trial = DropHeader(cur, hdr);
      if (StillFails(trial, options)) {
        cur = std::move(trial);
        changed = true;
      }
    }
  }
  return RenderCase(cur);
}

}  // namespace ipsa::testing
