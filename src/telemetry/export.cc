#include "telemetry/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace ipsa::telemetry {

namespace {

void Append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<size_t>(static_cast<size_t>(n),
                                              sizeof(buf) - 1));
}

// Escapes a Prometheus label value (backslash, quote, newline).
std::string EscapeLabel(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

void RenderHistogram(std::string& out, const std::string& name,
                     const std::string& labels, const Histogram& h) {
  uint64_t cumulative = 0;
  for (uint32_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += h.buckets[i];
    if (h.buckets[i] == 0 && i + 1 < kHistogramBuckets) continue;
    if (i + 1 == kHistogramBuckets) {
      Append(out, "%s_bucket{%sle=\"+Inf\"} %" PRIu64 "\n", name.c_str(),
             labels.c_str(), cumulative);
    } else {
      Append(out, "%s_bucket{%sle=\"%" PRIu64 "\"} %" PRIu64 "\n",
             name.c_str(), labels.c_str(), Histogram::UpperBound(i),
             cumulative);
    }
  }
  Append(out, "%s_sum{%s} %" PRIu64 "\n", name.c_str(),
         labels.substr(0, labels.size() - 1).c_str(), h.sum);
  Append(out, "%s_count{%s} %" PRIu64 "\n", name.c_str(),
         labels.substr(0, labels.size() - 1).c_str(), h.count);
}

util::Json HistogramToJson(const Histogram& h) {
  util::Json j = util::Json::Object();
  j["count"] = h.count;
  j["sum"] = h.sum;
  j["min"] = h.empty() ? uint64_t{0} : h.min;
  j["max"] = h.max;
  j["mean"] = h.Mean();
  j["p50"] = h.Percentile(0.50);
  j["p90"] = h.Percentile(0.90);
  j["p99"] = h.Percentile(0.99);
  util::Json buckets = util::Json::Array();
  for (uint32_t i = 0; i < kHistogramBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    util::Json b = util::Json::Object();
    if (i + 1 == kHistogramBuckets) {
      b["le"] = "+Inf";
    } else {
      b["le"] = Histogram::UpperBound(i);
    }
    b["n"] = h.buckets[i];
    buckets.push_back(std::move(b));
  }
  j["buckets"] = std::move(buckets);
  return j;
}

}  // namespace

std::string RenderPrometheus(const MetricsSnapshot& snap,
                             std::string_view arch) {
  std::string a = EscapeLabel(arch);
  std::string out;
  out.reserve(4096);

  Append(out, "# HELP ipsa_telemetry_enabled 1 when collection is on\n");
  Append(out, "# TYPE ipsa_telemetry_enabled gauge\n");
  Append(out, "ipsa_telemetry_enabled{arch=\"%s\"} %d\n", a.c_str(),
         snap.enabled ? 1 : 0);
  Append(out, "# HELP ipsa_config_epoch device configuration epoch\n");
  Append(out, "# TYPE ipsa_config_epoch gauge\n");
  Append(out, "ipsa_config_epoch{arch=\"%s\"} %" PRIu64 "\n", a.c_str(),
         snap.config_epoch);
  Append(out, "# HELP ipsa_snapshot_seq scrape sequence number\n");
  Append(out, "# TYPE ipsa_snapshot_seq counter\n");
  Append(out, "ipsa_snapshot_seq{arch=\"%s\"} %" PRIu64 "\n", a.c_str(),
         snap.seq);

  // Aggregate device counters.
  struct {
    const char* name;
    uint64_t value;
  } device[] = {
      {"ipsa_device_packets_in_total", snap.device.packets_in},
      {"ipsa_device_packets_out_total", snap.device.packets_out},
      {"ipsa_device_packets_dropped_total", snap.device.packets_dropped},
      {"ipsa_device_packets_marked_total", snap.device.packets_marked},
      {"ipsa_device_cycles_total", snap.device.total_cycles},
      {"ipsa_config_words_written_total", snap.device.config_words_written},
      {"ipsa_full_loads_total", snap.device.full_loads},
      {"ipsa_template_writes_total", snap.device.template_writes},
      {"ipsa_table_ops_total", snap.device.table_ops},
  };
  for (const auto& d : device) {
    Append(out, "# TYPE %s counter\n", d.name);
    Append(out, "%s{arch=\"%s\"} %" PRIu64 "\n", d.name, a.c_str(), d.value);
  }
  Append(out,
         "# HELP ipsa_interpreted_stages stage programs on the interpreter "
         "fallback because they did not compile\n");
  Append(out, "# TYPE ipsa_interpreted_stages gauge\n");
  Append(out, "ipsa_interpreted_stages{arch=\"%s\"} %" PRIu64 "\n", a.c_str(),
         snap.device.interpreted_stages);

  // Per-port counters + latency histograms.
  Append(out, "# TYPE ipsa_port_packets_in_total counter\n");
  Append(out, "# TYPE ipsa_port_packets_out_total counter\n");
  Append(out, "# TYPE ipsa_port_packets_dropped_total counter\n");
  Append(out, "# TYPE ipsa_packet_cycles histogram\n");
  for (const PortRow& row : snap.ports) {
    std::string labels = "arch=\"" + a + "\",port=\"" +
                         std::to_string(row.port) + "\"";
    Append(out, "ipsa_port_packets_in_total{%s} %" PRIu64 "\n", labels.c_str(),
           row.metrics.packets_in);
    Append(out, "ipsa_port_packets_out_total{%s} %" PRIu64 "\n",
           labels.c_str(), row.metrics.packets_out);
    Append(out, "ipsa_port_packets_dropped_total{%s} %" PRIu64 "\n",
           labels.c_str(), row.metrics.packets_dropped);
    RenderHistogram(out, "ipsa_packet_cycles", labels + ",",
                    row.metrics.cycles);
  }

  // Per-stage counters.
  Append(out, "# TYPE ipsa_stage_executions_total counter\n");
  Append(out, "# TYPE ipsa_stage_hits_total counter\n");
  Append(out, "# TYPE ipsa_stage_misses_total counter\n");
  for (const StageRow& row : snap.stages) {
    std::string labels = "arch=\"" + a + "\",unit=\"" +
                         std::to_string(row.unit) + "\",stage=\"" +
                         EscapeLabel(row.stage) + "\"";
    Append(out, "ipsa_stage_executions_total{%s} %" PRIu64 "\n",
           labels.c_str(), row.metrics.executions);
    Append(out, "ipsa_stage_hits_total{%s} %" PRIu64 "\n", labels.c_str(),
           row.metrics.hits);
    Append(out, "ipsa_stage_misses_total{%s} %" PRIu64 "\n", labels.c_str(),
           row.metrics.misses);
  }

  // Per-table counters.
  Append(out, "# TYPE ipsa_table_entries gauge\n");
  Append(out, "# TYPE ipsa_table_hits_total counter\n");
  Append(out, "# TYPE ipsa_table_misses_total counter\n");
  for (const TableRow& row : snap.tables) {
    std::string labels = "arch=\"" + a + "\",table=\"" +
                         EscapeLabel(row.table) + "\"";
    Append(out, "ipsa_table_entries{%s} %u\n", labels.c_str(), row.entries);
    Append(out, "ipsa_table_size{%s} %u\n", labels.c_str(), row.size);
    Append(out, "ipsa_table_hits_total{%s} %" PRIu64 "\n", labels.c_str(),
           row.hits);
    Append(out, "ipsa_table_misses_total{%s} %" PRIu64 "\n", labels.c_str(),
           row.misses);
  }

  // In-situ update windows.
  Append(out, "# TYPE ipsa_updates_total counter\n");
  Append(out, "ipsa_updates_total{arch=\"%s\"} %" PRIu64 "\n", a.c_str(),
         snap.updates);
  Append(out, "# TYPE ipsa_last_update_epoch gauge\n");
  Append(out, "ipsa_last_update_epoch{arch=\"%s\"} %" PRIu64 "\n", a.c_str(),
         snap.last_update_epoch);
  Append(out, "# TYPE ipsa_update_window_us histogram\n");
  RenderHistogram(out, "ipsa_update_window_us", "arch=\"" + a + "\",",
                  snap.update_window_us);
  Append(out, "# TYPE ipsa_drain_window_cycles histogram\n");
  RenderHistogram(out, "ipsa_drain_window_cycles", "arch=\"" + a + "\",",
                  snap.drain_window_cycles);

  // Trace ring occupancy.
  Append(out, "# TYPE ipsa_traces_captured_total counter\n");
  Append(out, "ipsa_traces_captured_total{arch=\"%s\"} %" PRIu64 "\n",
         a.c_str(), snap.traces_captured);
  Append(out, "# TYPE ipsa_traces_dropped_total counter\n");
  Append(out, "ipsa_traces_dropped_total{arch=\"%s\"} %" PRIu64 "\n",
         a.c_str(), snap.traces_dropped);
  Append(out, "# TYPE ipsa_traces_pending gauge\n");
  Append(out, "ipsa_traces_pending{arch=\"%s\"} %u\n", a.c_str(),
         snap.traces_pending);
  return out;
}

util::Json SnapshotToJson(const MetricsSnapshot& snap, std::string_view arch) {
  util::Json j = util::Json::Object();
  j["arch"] = std::string(arch);
  j["enabled"] = snap.enabled;
  j["seq"] = snap.seq;
  j["config_epoch"] = snap.config_epoch;

  util::Json device = util::Json::Object();
  device["packets_in"] = snap.device.packets_in;
  device["packets_out"] = snap.device.packets_out;
  device["packets_dropped"] = snap.device.packets_dropped;
  device["packets_marked"] = snap.device.packets_marked;
  device["total_cycles"] = snap.device.total_cycles;
  device["config_words_written"] = snap.device.config_words_written;
  device["full_loads"] = snap.device.full_loads;
  device["template_writes"] = snap.device.template_writes;
  device["table_ops"] = snap.device.table_ops;
  device["interpreted_stages"] = snap.device.interpreted_stages;
  j["device"] = std::move(device);

  util::Json ports = util::Json::Array();
  for (const PortRow& row : snap.ports) {
    util::Json p = util::Json::Object();
    p["port"] = row.port;
    p["packets_in"] = row.metrics.packets_in;
    p["packets_out"] = row.metrics.packets_out;
    p["packets_dropped"] = row.metrics.packets_dropped;
    p["packets_marked"] = row.metrics.packets_marked;
    p["cycles"] = HistogramToJson(row.metrics.cycles);
    ports.push_back(std::move(p));
  }
  j["ports"] = std::move(ports);

  util::Json stages = util::Json::Array();
  for (const StageRow& row : snap.stages) {
    util::Json s = util::Json::Object();
    s["unit"] = row.unit;
    s["stage"] = row.stage;
    s["executions"] = row.metrics.executions;
    s["hits"] = row.metrics.hits;
    s["misses"] = row.metrics.misses;
    stages.push_back(std::move(s));
  }
  j["stages"] = std::move(stages);

  util::Json tables = util::Json::Array();
  for (const TableRow& row : snap.tables) {
    util::Json t = util::Json::Object();
    t["table"] = row.table;
    t["match_kind"] = row.match_kind;
    t["entries"] = row.entries;
    t["size"] = row.size;
    t["hits"] = row.hits;
    t["misses"] = row.misses;
    tables.push_back(std::move(t));
  }
  j["tables"] = std::move(tables);

  util::Json updates = util::Json::Object();
  updates["count"] = snap.updates;
  updates["last_epoch"] = snap.last_update_epoch;
  updates["last_ms"] = snap.last_update_ms;
  updates["window_us"] = HistogramToJson(snap.update_window_us);
  updates["drain_cycles"] = HistogramToJson(snap.drain_window_cycles);
  j["updates"] = std::move(updates);

  util::Json traces = util::Json::Object();
  traces["captured"] = snap.traces_captured;
  traces["dropped"] = snap.traces_dropped;
  traces["pending"] = snap.traces_pending;
  j["traces"] = std::move(traces);
  return j;
}

util::Json TraceRecordToJson(const TraceRecord& record) {
  util::Json j = util::Json::Object();
  j["seq"] = record.seq;
  j["config_epoch"] = record.config_epoch;
  j["in_port"] = record.in_port;
  j["egress_port"] = record.result.egress_port;
  j["dropped"] = record.result.dropped;
  j["marked"] = record.result.marked;
  j["cycles"] = record.result.cycles;
  util::Json headers = util::Json::Array();
  for (const std::string& h : record.trace.parsed_headers) {
    headers.push_back(h);
  }
  j["parsed_headers"] = std::move(headers);
  util::Json steps = util::Json::Array();
  for (const TraceStep& step : record.trace.steps) {
    util::Json s = util::Json::Object();
    s["unit"] = step.unit;
    s["stage"] = step.stage;
    s["table"] = step.table;
    s["hit"] = step.hit;
    s["action"] = step.action;
    s["parse_bytes"] = step.parse_bytes;
    steps.push_back(std::move(s));
  }
  j["steps"] = std::move(steps);
  return j;
}

}  // namespace ipsa::telemetry
