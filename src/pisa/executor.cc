#include "pisa/executor.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "table/rcu.h"

namespace ipsa::pisa {

namespace {

// Merges a context's lookup tally into the tables' counters when the scope
// ends, error returns included.
class TallyFlush {
 public:
  explicit TallyFlush(arch::PacketContext& ctx)
      : tally_(ctx.lookup_scratch().tally) {}
  ~TallyFlush() { tally_.Flush(); }
  TallyFlush(const TallyFlush&) = delete;
  TallyFlush& operator=(const TallyFlush&) = delete;

 private:
  table::LookupTally& tally_;
};

struct Emit {
  uint32_t in_port;
  uint32_t egress_port;
  net::Packet packet;
};

}  // namespace

// Everything one worker writes per packet, on cache lines of its own.
struct alignas(64) DeviceDriver::Worker {
  arch::PacketContext ctx;
  uint64_t layout_generation = 0;  // the layout ctx.metadata() holds
  telemetry::DeviceStats stats;
  telemetry::MetricsShard shard;
  // Forwarded packets of this worker's ports, in serial-drain order.
  std::vector<Emit> emitted;
  uint32_t processed = 0;
  std::optional<Status> error;
  uint32_t error_port = 0;
};

DeviceDriver::DeviceDriver(PacketWalk& walk, net::PortSet& ports,
                           telemetry::DeviceStats& stats,
                           telemetry::Collector& telemetry)
    : walk_(walk), ports_(ports), stats_(stats), telemetry_(telemetry) {
  workers_.push_back(std::make_unique<Worker>());
}

DeviceDriver::~DeviceDriver() = default;

void DeviceDriver::SetMetadataLayout(const arch::Metadata& proto) {
  layout_ = &proto;
  ++layout_generation_;
  Worker& scratch = *workers_[0];
  scratch.ctx.metadata() = proto;
  scratch.layout_generation = layout_generation_;
}

Result<telemetry::ProcessResult> DeviceDriver::ProcessSampled(
    net::Packet& packet, uint32_t in_port, arch::PacketContext& ctx,
    telemetry::DeviceStats& stats, telemetry::MetricsShard* tshard,
    telemetry::ProcessTrace* trace) {
  if (trace == nullptr && telemetry_.ShouldTrace(in_port)) {
    telemetry::ProcessTrace sampled;
    auto result =
        walk_.ProcessCore(packet, in_port, ctx, stats, tshard, &sampled);
    if (result.ok()) {
      telemetry_.CommitTrace(walk_.TraceEpoch(), in_port, *result,
                             std::move(sampled));
    }
    return result;
  }
  return walk_.ProcessCore(packet, in_port, ctx, stats, tshard, trace);
}

Result<telemetry::ProcessResult> DeviceDriver::Process(
    net::Packet& packet, uint32_t in_port, telemetry::ProcessTrace* trace) {
  // One RCU pin for the packet; each lookup's own guard then only nests.
  table::rcu::Domain::ReadGuard pin(table::rcu::Domain::Global());
  arch::PacketContext& ctx = workers_[0]->ctx;
  TallyFlush flush(ctx);
  return ProcessSampled(packet, in_port, ctx, stats_, telemetry_.shard(),
                        trace);
}

Result<std::vector<telemetry::ProcessResult>> DeviceDriver::ProcessBatch(
    std::span<net::Packet> packets, uint32_t in_port) {
  // One RCU pin for the whole batch; each lookup's own guard then only
  // nests. Retired table views wait for the batch to end.
  table::rcu::Domain::ReadGuard pin(table::rcu::Domain::Global());
  arch::PacketContext& ctx = workers_[0]->ctx;
  TallyFlush flush(ctx);
  telemetry::MetricsShard* tshard = telemetry_.shard();
  std::vector<telemetry::ProcessResult> out;
  out.reserve(packets.size());
  for (net::Packet& packet : packets) {
    IPSA_ASSIGN_OR_RETURN(
        telemetry::ProcessResult r,
        ProcessSampled(packet, in_port, ctx, stats_, tshard, nullptr));
    out.push_back(r);
  }
  return out;
}

Result<uint32_t> DeviceDriver::RunToCompletion(uint32_t workers) {
  const uint32_t port_count = ports_.count();
  workers =
      std::clamp<uint32_t>(workers, 1, std::max<uint32_t>(port_count, 1));
  if (workers == 1) {
    // The serial reference: forwarded packets go straight to TX.
    table::rcu::Domain::ReadGuard pin(table::rcu::Domain::Global());
    arch::PacketContext& ctx = workers_[0]->ctx;
    TallyFlush flush(ctx);
    telemetry::MetricsShard* tshard = telemetry_.shard();
    uint32_t processed = 0;
    for (uint32_t p = 0; p < port_count; ++p) {
      while (auto packet = ports_.port(p).rx().Pop()) {
        IPSA_ASSIGN_OR_RETURN(
            telemetry::ProcessResult r,
            ProcessSampled(*packet, p, ctx, stats_, tshard, nullptr));
        if (!r.dropped && r.egress_port < port_count) {
          ports_.port(r.egress_port).tx().Push(std::move(*packet));
        }
        ++processed;
      }
    }
    return processed;
  }

  // Slots of workers that never ran stay null until their thread fills them.
  if (workers_.size() < workers) workers_.resize(workers);
  {
    std::vector<std::jthread> threads;
    threads.reserve(workers - 1);
    for (uint32_t w = 1; w < workers; ++w) {
      threads.emplace_back([this, w, workers] { RunShare(w, workers); });
    }
    RunShare(0, workers);
  }  // joins every worker, on exception paths too

  uint32_t processed = 0;
  const Worker* failed = nullptr;
  for (uint32_t w = 0; w < workers; ++w) {
    const Worker& worker = *workers_[w];
    processed += worker.processed;
    stats_.MergeFrom(worker.stats);
    if (telemetry_.enabled()) telemetry_.MergeWorkerShard(worker.shard);
    if (worker.error.has_value() &&
        (failed == nullptr || worker.error_port < failed->error_port)) {
      failed = &worker;
    }
  }
  if (failed != nullptr) return *failed->error;

  // Replay TX pushes in the serial drain's order: ascending ingress port,
  // FIFO within a port. Overflow drops land on the same packets they would
  // in a serial run.
  std::vector<size_t> next(workers, 0);
  for (uint32_t p = 0; p < port_count; ++p) {
    std::vector<Emit>& emitted = workers_[p % workers]->emitted;
    size_t& i = next[p % workers];
    for (; i < emitted.size() && emitted[i].in_port == p; ++i) {
      ports_.port(emitted[i].egress_port).tx().Push(
          std::move(emitted[i].packet));
    }
  }
  return processed;
}

void DeviceDriver::RunShare(uint32_t w, uint32_t stride) {
  std::unique_ptr<Worker>& slot = workers_[w];
  if (slot == nullptr) slot = std::make_unique<Worker>();
  Worker& me = *slot;
  if (me.layout_generation != layout_generation_) {
    me.ctx.metadata() = *layout_;
    me.layout_generation = layout_generation_;
  }
  me.stats = telemetry::DeviceStats{};
  me.emitted.clear();
  me.processed = 0;
  me.error.reset();
  telemetry::MetricsShard* tshard = nullptr;
  if (telemetry_.enabled()) {
    telemetry_.PrepareWorkerShard(me.shard);
    tshard = &me.shard;
  }

  // One RCU pin and one tally merge for the whole share.
  table::rcu::Domain::ReadGuard pin(table::rcu::Domain::Global());
  TallyFlush flush(me.ctx);
  const uint32_t port_count = ports_.count();
  for (uint32_t p = w; p < port_count; p += stride) {
    while (auto packet = ports_.port(p).rx().Pop()) {
      Result<telemetry::ProcessResult> r =
          ProcessSampled(*packet, p, me.ctx, me.stats, tshard, nullptr);
      if (!r.ok()) {
        me.error = r.status();
        me.error_port = p;
        return;
      }
      ++me.processed;
      if (!r->dropped && r->egress_port < port_count) {
        me.emitted.push_back(Emit{p, r->egress_port, std::move(*packet)});
      }
    }
  }
}

}  // namespace ipsa::pisa
