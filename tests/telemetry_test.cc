// Unit tests for src/telemetry: histogram math, shard merging, the trace
// ring's sampling/bounding behavior, the collector's stage-layout rules,
// and both wire renderings (Prometheus text, stable JSON).
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>
#include <vector>

#include "telemetry/collector.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_ring.h"
#include "util/json.h"

namespace ipsa::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundsArePowersOfTwo) {
  EXPECT_EQ(Histogram::UpperBound(0), 1u);
  EXPECT_EQ(Histogram::UpperBound(1), 2u);
  EXPECT_EQ(Histogram::UpperBound(10), 1024u);
  // The last bucket catches everything.
  EXPECT_EQ(Histogram::UpperBound(kHistogramBuckets - 1),
            std::numeric_limits<uint64_t>::max());
}

TEST(Histogram, ObserveTracksCountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count, 0u);
  h.Observe(3);
  h.Observe(100);
  h.Observe(7);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 110u);
  EXPECT_EQ(h.min, 3u);
  EXPECT_EQ(h.max, 100u);
}

TEST(Histogram, PercentileIsBucketUpperBound) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Observe(3);  // bucket le=4
  h.Observe(1000);                            // bucket le=1024
  EXPECT_EQ(h.Percentile(0.50), 4u);
  EXPECT_EQ(h.Percentile(0.90), 4u);
  // The top percentile's bucket bound (1024) is clamped to the true max.
  EXPECT_EQ(h.Percentile(1.0), 1000u);
  Histogram empty;
  EXPECT_EQ(empty.Percentile(0.50), 0u);
}

TEST(Histogram, MergeEqualsCombinedObservation) {
  std::mt19937_64 rng(7);
  Histogram serial, a, b;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng() % 100000;
    serial.Observe(v);
    (i % 2 ? a : b).Observe(v);
  }
  a.MergeFrom(b);
  EXPECT_EQ(serial, a);
}

// ---------------------------------------------------------------------------
// MetricsShard
// ---------------------------------------------------------------------------

ProcessResult MakeResult(uint64_t cycles, bool dropped = false) {
  ProcessResult r;
  r.dropped = dropped;
  r.cycles = cycles;
  r.egress_port = 2;
  return r;
}

TEST(MetricsShard, ShardedMergeMatchesSerial) {
  constexpr uint32_t kPorts = 4;
  constexpr uint32_t kStages = 6;
  MetricsShard serial;
  serial.SizeTo(kPorts, kStages);
  std::vector<MetricsShard> workers(3);
  for (MetricsShard& w : workers) w.SizeTo(kPorts, kStages);

  // Same event stream into both sides, split across workers round-robin.
  std::mt19937_64 rng(42);
  for (int i = 0; i < 5000; ++i) {
    uint32_t port = rng() % kPorts;
    uint32_t stage = rng() % kStages;
    bool hit = (rng() % 2) == 0;
    ProcessResult r = MakeResult(rng() % 4096, (rng() % 8) == 0);
    serial.OnResult(port, r);
    serial.OnStage(stage, true, hit);
    MetricsShard& w = workers[i % workers.size()];
    w.OnResult(port, r);
    w.OnStage(stage, true, hit);
  }

  MetricsShard merged;
  merged.SizeTo(kPorts, kStages);
  for (const MetricsShard& w : workers) merged.MergeFrom(w);
  EXPECT_EQ(serial, merged);
}

TEST(MetricsShard, OutOfRangeIndicesAreIgnored) {
  MetricsShard s;
  s.SizeTo(2, 2);
  s.OnResult(99, MakeResult(10));
  s.OnStage(99, true, true);
  for (const PortMetrics& p : s.ports) EXPECT_EQ(p.packets_in, 0u);
  for (const StageMetrics& st : s.stages) EXPECT_EQ(st.executions, 0u);
}

// ---------------------------------------------------------------------------
// TraceRing
// ---------------------------------------------------------------------------

TraceRecord MakeTrace(uint32_t in_port, const std::string& table = "") {
  TraceRecord rec;
  rec.in_port = in_port;
  if (!table.empty()) {
    TraceStep step;
    step.table = table;
    rec.trace.steps.push_back(std::move(step));
  }
  return rec;
}

TEST(TraceRing, SamplesOneInN) {
  TraceRing ring;
  TraceConfig config;
  config.sample_every = 4;
  ring.Configure(config);
  int sampled = 0;
  for (int i = 0; i < 100; ++i) sampled += ring.ShouldTrace(0) ? 1 : 0;
  EXPECT_EQ(sampled, 25);
}

TEST(TraceRing, PortPredicateFilters) {
  TraceRing ring;
  TraceConfig config;
  config.sample_every = 1;
  config.port = 2;
  ring.Configure(config);
  EXPECT_FALSE(ring.ShouldTrace(0));
  EXPECT_TRUE(ring.ShouldTrace(2));
}

TEST(TraceRing, TablePredicateFiltersAtCommit) {
  TraceRing ring;
  TraceConfig config;
  config.sample_every = 1;
  config.table = "ipv4_lpm";
  ring.Configure(config);
  EXPECT_FALSE(ring.Commit(MakeTrace(0, "dmac")));
  EXPECT_TRUE(ring.Commit(MakeTrace(0, "ipv4_lpm")));
  EXPECT_EQ(ring.captured(), 1u);
  EXPECT_EQ(ring.pending(), 1u);
}

TEST(TraceRing, BoundedWithOldestEviction) {
  TraceRing ring;
  TraceConfig config;
  config.sample_every = 1;
  config.capacity = 4;
  ring.Configure(config);
  for (uint32_t i = 0; i < 10; ++i) ring.Commit(MakeTrace(i));
  EXPECT_EQ(ring.pending(), 4u);
  EXPECT_EQ(ring.captured(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<TraceRecord> drained = ring.Drain();
  ASSERT_EQ(drained.size(), 4u);
  // Oldest-first, and the seq ids show which records were evicted.
  EXPECT_EQ(drained.front().seq, 7u);
  EXPECT_EQ(drained.back().seq, 10u);
  EXPECT_EQ(drained.front().in_port, 6u);
  EXPECT_EQ(ring.pending(), 0u);
}

TEST(TraceRing, DrainMaxLeavesRemainder) {
  TraceRing ring;
  TraceConfig config;
  config.sample_every = 1;
  ring.Configure(config);
  for (uint32_t i = 0; i < 5; ++i) ring.Commit(MakeTrace(i));
  EXPECT_EQ(ring.Drain(2).size(), 2u);
  EXPECT_EQ(ring.pending(), 3u);
  EXPECT_EQ(ring.Drain().size(), 3u);
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

TelemetryConfig EnabledConfig() {
  TelemetryConfig config;
  config.enabled = true;
  return config;
}

TEST(Collector, DisabledShardIsNull) {
  Collector c;
  EXPECT_EQ(c.shard(), nullptr);
  c.Configure(EnabledConfig(), 4);
  EXPECT_NE(c.shard(), nullptr);
}

TEST(Collector, UnchangedStageLayoutKeepsCounters) {
  Collector c;
  c.Configure(EnabledConfig(), 4);
  std::vector<StageInfo> layout = {{0, "port_map"}, {1, "l2_l3"}};
  c.SetStages(layout);
  c.shard()->OnStage(1, true, true);
  c.SetStages(layout);  // recompile, same layout
  MetricsSnapshot snap = c.Snapshot(1, DeviceStats{});
  ASSERT_EQ(snap.stages.size(), 2u);
  EXPECT_EQ(snap.stages[1].stage, "l2_l3");
  EXPECT_EQ(snap.stages[1].metrics.hits, 1u);

  c.SetStages({{0, "port_map"}, {1, "renamed"}});  // changed layout
  snap = c.Snapshot(2, DeviceStats{});
  EXPECT_EQ(snap.stages[1].metrics.hits, 0u);
}

TEST(Collector, SnapshotCarriesEpochAndWindows) {
  Collector c;
  c.Configure(EnabledConfig(), 2);
  c.OnDrainWindow(120);
  c.OnUpdateWindow(7, 1500.0);
  c.shard()->OnResult(1, MakeResult(33));

  MetricsSnapshot snap = c.Snapshot(7, DeviceStats{});
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(snap.seq, 1u);
  EXPECT_EQ(snap.config_epoch, 7u);
  EXPECT_EQ(snap.updates, 1u);
  EXPECT_EQ(snap.last_update_epoch, 7u);
  EXPECT_DOUBLE_EQ(snap.last_update_ms, 1.5);
  EXPECT_EQ(snap.update_window_us.count, 1u);
  EXPECT_EQ(snap.drain_window_cycles.count, 1u);
  // Only ports with traffic appear.
  ASSERT_EQ(snap.ports.size(), 1u);
  EXPECT_EQ(snap.ports[0].port, 1u);
  EXPECT_EQ(snap.ports[0].metrics.packets_in, 1u);

  MetricsSnapshot again = c.Snapshot(7, DeviceStats{});
  EXPECT_EQ(again.seq, 2u);
}

TEST(Collector, ResetClearsDataKeepsConfig) {
  Collector c;
  TelemetryConfig config = EnabledConfig();
  config.trace.sample_every = 1;
  c.Configure(config, 2);
  c.shard()->OnResult(0, MakeResult(5));
  ASSERT_TRUE(c.ShouldTrace(0));
  c.CommitTrace(1, 0, MakeResult(5), ProcessTrace{});
  c.OnUpdateWindow(1, 10);
  c.Reset();

  MetricsSnapshot snap = c.Snapshot(1, DeviceStats{});
  EXPECT_TRUE(snap.enabled);
  EXPECT_TRUE(snap.ports.empty());
  EXPECT_EQ(snap.updates, 0u);
  EXPECT_EQ(snap.traces_captured, 0u);
  EXPECT_EQ(snap.traces_pending, 0u);
  EXPECT_TRUE(c.ShouldTrace(0)) << "sampling config must survive Reset";
}

// Subscribers (src/reactor) detect missed or stale snapshots by the seq gap,
// so the sequence must keep climbing across ResetMetrics — a reset clears
// counters, not the subscription stream.
TEST(Collector, SnapshotSeqMonotonicAcrossReset) {
  Collector c;
  c.Configure(EnabledConfig(), 2);
  uint64_t last = 0;
  for (int round = 0; round < 3; ++round) {
    c.shard()->OnResult(0, MakeResult(5));
    MetricsSnapshot before = c.Snapshot(1, DeviceStats{});
    EXPECT_GT(before.seq, last);
    last = before.seq;
    c.Reset();
    MetricsSnapshot after = c.Snapshot(1, DeviceStats{});
    EXPECT_GT(after.seq, last) << "Reset must not rewind the sequence";
    EXPECT_TRUE(after.ports.empty());
    last = after.seq;
  }
}

TEST(Collector, WorkerShardMergeMatchesMaster) {
  Collector serial, parallel;
  serial.Configure(EnabledConfig(), 4);
  parallel.Configure(EnabledConfig(), 4);
  std::vector<StageInfo> layout = {{0, "a"}, {1, "b"}};
  serial.SetStages(layout);
  parallel.SetStages(layout);

  std::vector<MetricsShard> workers(3);
  for (MetricsShard& w : workers) parallel.PrepareWorkerShard(w);
  std::mt19937_64 rng(99);
  for (int i = 0; i < 2000; ++i) {
    uint32_t port = rng() % 4;
    bool hit = rng() % 2;
    ProcessResult r = MakeResult(rng() % 512);
    serial.shard()->OnResult(port, r);
    serial.shard()->OnStage(port % 2, true, hit);
    workers[i % 3].OnResult(port, r);
    workers[i % 3].OnStage(port % 2, true, hit);
  }
  for (const MetricsShard& w : workers) parallel.MergeWorkerShard(w);
  EXPECT_EQ(*serial.shard(), *parallel.shard());
}

// ---------------------------------------------------------------------------
// Export formats
// ---------------------------------------------------------------------------

MetricsSnapshot SampleSnapshot() {
  Collector c;
  TelemetryConfig config = EnabledConfig();
  config.trace.sample_every = 1;
  c.Configure(config, 2);
  c.SetStages({{0, "port_map"}, {3, "ipv4_lpm"}});
  c.shard()->OnResult(0, MakeResult(40));
  c.shard()->OnStage(1, true, false);
  c.OnUpdateWindow(3, 900.0);
  c.OnDrainWindow(64);
  DeviceStats dev;
  dev.packets_in = 1;
  dev.template_writes = 2;
  MetricsSnapshot snap = c.Snapshot(3, dev);
  TableRow row;
  row.table = "ipv4_lpm";
  row.match_kind = 2;
  row.entries = 10;
  row.size = 64;
  row.hits = 5;
  row.misses = 1;
  snap.tables.push_back(row);
  return snap;
}

TEST(Export, PrometheusContainsCoreSeries) {
  std::string text = RenderPrometheus(SampleSnapshot(), "ipsa");
  EXPECT_NE(text.find("ipsa_device_packets_in_total{arch=\"ipsa\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ipsa_config_epoch{arch=\"ipsa\"} 3"),
            std::string::npos);
  EXPECT_NE(
      text.find("ipsa_table_hits_total{arch=\"ipsa\",table=\"ipv4_lpm\"} 5"),
      std::string::npos);
  EXPECT_NE(text.find("ipsa_update_window_us_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("ipsa_update_window_us_count{arch=\"ipsa\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ipsa_packet_cycles_bucket"), std::string::npos);
  EXPECT_NE(
      text.find("ipsa_stage_executions_total{arch=\"ipsa\",unit=\"3\","
                "stage=\"ipv4_lpm\"} 1"),
      std::string::npos)
      << text;
  // Exposition-format hygiene: HELP/TYPE headers and trailing newline.
  EXPECT_NE(text.find("# TYPE ipsa_device_packets_in_total counter"),
            std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Export, JsonSchemaIsStable) {
  util::Json j = SnapshotToJson(SampleSnapshot(), "ipsa");
  EXPECT_EQ(j.GetString("arch"), "ipsa");
  EXPECT_TRUE(j.GetBool("enabled"));
  EXPECT_EQ(j.GetInt("config_epoch"), 3);
  ASSERT_NE(j.Find("device"), nullptr);
  EXPECT_EQ(j.Find("device")->GetInt("packets_in"), 1);
  ASSERT_NE(j.Find("ports"), nullptr);
  ASSERT_EQ(j.Find("ports")->as_array().size(), 1u);
  const util::Json& port = j.Find("ports")->as_array()[0];
  EXPECT_EQ(port.GetInt("port"), 0);
  ASSERT_NE(port.Find("cycles"), nullptr);
  EXPECT_EQ(port.Find("cycles")->GetInt("count"), 1);
  // Percentiles are precomputed for scripts.
  EXPECT_NE(port.Find("cycles")->Find("p99"), nullptr);
  ASSERT_NE(j.Find("tables"), nullptr);
  EXPECT_EQ(j.Find("tables")->as_array()[0].GetString("table"), "ipv4_lpm");
  ASSERT_NE(j.Find("updates"), nullptr);
  // Round-trips through the parser.
  auto parsed = util::Json::Parse(j.Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, j);
}

TEST(Export, TraceRecordJson) {
  TraceRecord rec = MakeTrace(2, "ipv4_lpm");
  rec.seq = 9;
  rec.config_epoch = 4;
  rec.result = MakeResult(55);
  rec.trace.parsed_headers.push_back("ipv4");
  util::Json j = TraceRecordToJson(rec);
  EXPECT_EQ(j.GetInt("seq"), 9);
  EXPECT_EQ(j.GetInt("config_epoch"), 4);
  EXPECT_EQ(j.GetInt("in_port"), 2);
  EXPECT_EQ(j.GetInt("cycles"), 55);
  EXPECT_EQ(j.GetInt("egress_port"), 2);
  ASSERT_NE(j.Find("parsed_headers"), nullptr);
  EXPECT_EQ(j.Find("parsed_headers")->as_array()[0].as_string(), "ipv4");
  ASSERT_NE(j.Find("steps"), nullptr);
  EXPECT_EQ(j.Find("steps")->as_array()[0].GetString("table"), "ipv4_lpm");
}

}  // namespace
}  // namespace ipsa::telemetry
