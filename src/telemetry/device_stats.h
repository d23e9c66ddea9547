// Counters and trace types shared by both behavioral devices: config-bus
// traffic (drives load-time accounting), packet/drop counts, cycle totals,
// and the per-packet execution trace.
//
// These used to live in src/pisa, but nothing here is PISA-specific — the
// IPSA device, the daemon backends, and the parallel executor all consume
// them, so they live in the shared telemetry layer. src/pisa/device_stats.h
// remains as an aliasing shim for existing ipsa::pisa:: spellings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ipsa::telemetry {

struct DeviceStats {
  // Config plane.
  uint64_t config_words_written = 0;
  uint64_t full_loads = 0;        // monolithic design loads (PISA)
  uint64_t template_writes = 0;   // incremental template writes (IPSA)
  uint64_t table_ops = 0;         // runtime entry add/del

  // Data plane.
  uint64_t packets_in = 0;
  uint64_t packets_out = 0;
  uint64_t packets_dropped = 0;
  uint64_t packets_marked = 0;
  uint64_t total_cycles = 0;

  // Gauge: stage programs that CompileStage could not resolve and that run
  // on the interpreter fallback (RunStage) in the installed configuration.
  // Set at each recompile; zero when every stage compiled, and under
  // ExecMode::kInterpret, where interpreting is the chosen mode.
  uint64_t interpreted_stages = 0;

  void Reset() { *this = DeviceStats{}; }

  // Accumulates another shard's counters (parallel workers keep per-worker
  // stats and merge them after the join).
  void MergeFrom(const DeviceStats& o) {
    config_words_written += o.config_words_written;
    full_loads += o.full_loads;
    template_writes += o.template_writes;
    table_ops += o.table_ops;
    packets_in += o.packets_in;
    packets_out += o.packets_out;
    packets_dropped += o.packets_dropped;
    packets_marked += o.packets_marked;
    total_cycles += o.total_cycles;
    // interpreted_stages is a device-wide gauge, not a worker counter.
  }
};

// One stage execution in a packet trace.
struct TraceStep {
  uint32_t unit = 0;          // physical stage index / TSP id
  std::string stage;          // logical stage name
  std::string table;          // applied table ("" if the guard skipped it)
  bool hit = false;
  std::string action;         // executed action
  uint64_t parse_bytes = 0;   // bytes extracted just-in-time (IPSA)
};

// Per-packet execution trace (filled when a trace sink is passed to
// Process) — the observability base for the paper's "dynamic network
// visibility" motivation.
struct ProcessTrace {
  std::vector<std::string> parsed_headers;  // final PHV contents
  std::vector<TraceStep> steps;
};

// Per-packet processing outcome, shared by both behavioral devices.
struct ProcessResult {
  bool dropped = false;
  bool marked = false;
  uint32_t egress_port = 0;
  uint64_t cycles = 0;
  uint32_t headers_parsed = 0;
  // Pipeline initiation interval for this packet (arch/ii_model.h);
  // throughput = clock / E[pipeline_ii].
  double pipeline_ii = 1.0;
};

}  // namespace ipsa::telemetry
