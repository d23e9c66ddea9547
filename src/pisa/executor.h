// The packet driver both behavioral devices share.
//
// pbm and ipbm differ only in their per-packet pipeline walk (PacketWalk).
// Everything around it — per-packet Process, ProcessBatch, trace sampling,
// the RCU pin, the lookup-tally merge and the multi-worker drain — lives
// here once.
//
// RunToCompletion(N) shards the ports across N workers (port p -> worker
// p % N); the calling thread runs worker 0's share, so N-1 threads are
// spawned. Each worker buffers its forwarded packets; after the join they
// are replayed in ascending ingress-port FIFO order — exactly the order a
// serial drain produces. Output queues, including overflow drops, are
// therefore bit-identical to a single-threaded drain as long as per-packet
// processing is independent (the devices serialize register-touching
// pipelines to one worker).
//
// Workers share no cache line they write per packet: each owns one
// cache-line-aligned block (context, stats and telemetry shards, lookup
// tally, TX buffer) that lasts across drains, is first allocated on the
// worker's own thread, and is refreshed there after a recompile.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/context.h"
#include "net/ports.h"
#include "telemetry/collector.h"
#include "telemetry/device_stats.h"
#include "util/status.h"

namespace ipsa::pisa {

// A device's per-packet pipeline walk.
class PacketWalk {
 public:
  // Runs one packet through the pipeline. `ctx` is the worker's reusable
  // scratch context; `stats` and `tshard` (null when telemetry is off) are
  // the counter shards to charge; a non-null `trace` records every stage.
  virtual Result<telemetry::ProcessResult> ProcessCore(
      net::Packet& packet, uint32_t in_port, arch::PacketContext& ctx,
      telemetry::DeviceStats& stats, telemetry::MetricsShard* tshard,
      telemetry::ProcessTrace* trace) = 0;
  // The configuration epoch sampled traces are tagged with.
  virtual uint64_t TraceEpoch() const = 0;

 protected:
  ~PacketWalk() = default;
};

class DeviceDriver {
 public:
  DeviceDriver(PacketWalk& walk, net::PortSet& ports,
               telemetry::DeviceStats& stats, telemetry::Collector& telemetry);
  ~DeviceDriver();
  // Drain threads hold its address.
  DeviceDriver(const DeviceDriver&) = delete;
  DeviceDriver& operator=(const DeviceDriver&) = delete;

  // Installs the metadata layout every packet starts from. The device calls
  // this after each recompile; worker blocks pick it up on their next drain.
  void SetMetadataLayout(const arch::Metadata& proto);

  // The device has compiled its current configuration before each call.
  Result<telemetry::ProcessResult> Process(net::Packet& packet,
                                           uint32_t in_port,
                                           telemetry::ProcessTrace* trace);
  Result<std::vector<telemetry::ProcessResult>> ProcessBatch(
      std::span<net::Packet> packets, uint32_t in_port);
  // Drains every RX queue with `workers` workers and returns the number of
  // packets processed. If a packet fails, the drain returns its error (the
  // lowest ingress port's, when several workers fail); a multi-worker drain
  // then replays no TX. Counters are merged either way.
  Result<uint32_t> RunToCompletion(uint32_t workers);

 private:
  struct Worker;

  // Runs one packet, sampling a trace when the collector's predicate fires
  // (only consulted when `trace` is null).
  Result<telemetry::ProcessResult> ProcessSampled(
      net::Packet& packet, uint32_t in_port, arch::PacketContext& ctx,
      telemetry::DeviceStats& stats, telemetry::MetricsShard* tshard,
      telemetry::ProcessTrace* trace);
  // Worker `w`'s share of a drain with `stride` workers, on its own thread.
  void RunShare(uint32_t w, uint32_t stride);

  PacketWalk& walk_;
  net::PortSet& ports_;
  telemetry::DeviceStats& stats_;
  telemetry::Collector& telemetry_;
  const arch::Metadata* layout_ = nullptr;
  uint64_t layout_generation_ = 0;
  // Worker 0 is also the scratch of Process/ProcessBatch and the serial
  // drain, which charge the device's own stats and telemetry shard.
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace ipsa::pisa
