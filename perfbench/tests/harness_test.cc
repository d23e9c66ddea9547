// Self-test of the benchmark's measurement helpers (src/harness.h): the
// percentile rule, span self-time subtraction, the TX digest, the
// whole-cycle timing of in-situ insert+remove pairs, and host-speed
// scaling. No test framework: the benchmark build needs nothing beyond the
// repo's own libraries.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <vector>

#include "harness.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void PercentileRule() {
  using perfbench::SupportedPercentile;
  // p50 needs 20 samples (ten beyond it), p90 100, p99 1000, p99.9 10000.
  EXPECT(SupportedPercentile(0) == 0);
  EXPECT(SupportedPercentile(19) == 0);
  EXPECT(SupportedPercentile(20) == 50);
  EXPECT(SupportedPercentile(99) == 50);
  EXPECT(SupportedPercentile(100) == 90);
  EXPECT(SupportedPercentile(999) == 90);
  EXPECT(SupportedPercentile(1000) == 99);
  EXPECT(SupportedPercentile(9999) == 99);
  EXPECT(SupportedPercentile(10000) == 99.9);

  // Nearest rank on 1..100: pN is N.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(perfbench::Percentile(v, 50) == 50);
  EXPECT(perfbench::Percentile(v, 90) == 90);
  EXPECT(perfbench::Percentile(v, 99) == 99);
  EXPECT(perfbench::Percentile(v, 100) == 100);
  EXPECT(perfbench::Percentile({}, 50) == 0);
  EXPECT(perfbench::Median({3, 1, 2}) == 2);

  // Blocked tail: three blocks of 1..100, one of them with its top ten
  // samples stretched by a hiccup. Each clean block's p90 is 90; the
  // hiccup moves only its own block, so the median stays 90. A trailing
  // partial block is ignored.
  std::vector<double> w;
  for (int b = 0; b < 3; ++b) {
    for (int i = 1; i <= 100; ++i) w.push_back(b == 1 && i > 90 ? 1e6 : i);
  }
  w.push_back(5e6);
  EXPECT(perfbench::Percentile(w, 90) > 90);
  EXPECT(perfbench::BlockedPercentile(w, 90, 100) == 90);
  EXPECT(perfbench::BlockedPercentile(w, 90, 1000) == 0);  // no full block
}

void SpanSelfTime() {
  perfbench::Tracer t;
  // root [0,100] with children [10,30] and [20,50] (overlapping: 40 covered)
  // and [60,70]; grandchild [12,18] inside the first child.
  int32_t root = t.Record("root", -1, 1, 0, 100);
  int32_t a = t.Record("a", root, 1, 10, 30);
  t.Record("b", root, 1, 20, 50);
  t.Record("a", root, 1, 60, 70);
  t.Record("leaf", a, 1, 12, 18);
  auto self = perfbench::SelfTimeNs(t.spans());
  EXPECT(Near(self["root"], 100 - 50));      // covered: [10,50] + [60,70]
  EXPECT(Near(self["a"], (20 - 6) + 10));     // first a loses the leaf
  EXPECT(Near(self["b"], 30));
  EXPECT(Near(self["leaf"], 6));
  // A child reaching past its parent only subtracts the overlap.
  perfbench::Tracer u;
  int32_t p = u.Record("p", -1, 2, 0, 10);
  u.Record("c", p, 2, 5, 20);
  EXPECT(Near(perfbench::SelfTimeNs(u.spans())["p"], 5));

  auto tot = perfbench::TotalTimeNs(t.spans());
  EXPECT(Near(tot["a"].total_ns, 30) && tot["a"].calls == 2);

  // Begin/End nest through the open-span stack.
  perfbench::Tracer n;
  int32_t outer = n.Begin("outer", 3);
  int32_t inner = n.Begin("inner", 3);
  n.End(inner);
  n.End(outer);
  EXPECT(n.spans()[1].parent == outer);
  EXPECT(n.spans()[0].parent == -1);
  EXPECT(n.spans()[1].end_ns >= n.spans()[1].start_ns);
}

void Digest() {
  std::vector<uint8_t> x = {1, 2, 3}, y = {1, 2, 4};
  perfbench::TxDigest a, b, c, d, e;
  a.Add(1, x);
  b.Add(1, x);
  EXPECT(a.value() == b.value());
  c.Add(2, x);  // same bytes, other port
  EXPECT(a.value() != c.value());
  d.Add(1, y);  // same port, other bytes
  EXPECT(a.value() != d.value());
  // Order matters: a reordered TX stream is a different output.
  perfbench::TxDigest f, g;
  f.Add(1, x);
  f.Add(1, y);
  g.Add(1, y);
  g.Add(1, x);
  EXPECT(f.value() != g.value());
  // A drop differs from forwarding an empty packet.
  e.AddDrop();
  perfbench::TxDigest h;
  h.Add(0, {});
  EXPECT(e.value() != h.value());
}

void CycleTiming() {
  perfbench::CycleClock c;
  // A batch before any insert closes nothing.
  EXPECT(!c.BatchForwarded(5));
  c.InsertIssued(1000);
  // Batches after the insert but before the remove stay inside the cycle.
  EXPECT(!c.BatchForwarded(2000));
  EXPECT(!c.BatchForwarded(3000));
  c.RemoveApplied();
  // The first batch after the remove closes it: one sample for the pair.
  EXPECT(c.BatchForwarded(4500));
  EXPECT(!c.BatchForwarded(5000));
  EXPECT(c.samples_us().size() == 1);
  EXPECT(Near(c.samples_us()[0], 3.5));  // 3500 ns
  // A remove without an open cycle is ignored.
  c.RemoveApplied();
  EXPECT(!c.BatchForwarded(6000));
  c.InsertIssued(10000);
  c.RemoveApplied();
  EXPECT(c.BatchForwarded(12000));
  EXPECT(c.samples_us().size() == 2 && Near(c.samples_us()[1], 2.0));
  // The host-speed scale multiplies the whole cycle's duration.
  c.InsertIssued(20000, 1.5);
  c.RemoveApplied();
  EXPECT(c.BatchForwarded(22000));
  EXPECT(Near(c.samples_us()[2], 3.0));
}

void HostSpeedScaling() {
  // A host at 1.25x nominal: rates read 1.25x high, durations 1.25x short.
  EXPECT(Near(perfbench::ScaleToNominal(125.0, "pkt/s", 1.25), 100.0));
  EXPECT(Near(perfbench::ScaleToNominal(80.0, "us", 1.25), 100.0));
  EXPECT(Near(perfbench::ScaleToNominal(0.8, "s", 1.25), 1.0));
  EXPECT(Near(perfbench::ScaleToNominal(260.0, "MB", 1.25), 260.0));
  EXPECT(Near(perfbench::ScaleToNominal(3.0, "count", 1.25), 3.0));
  perfbench::HostProbe probe;
  EXPECT(probe.speed() == 1.0);
  EXPECT(probe.Run(1'000'000) > 0);
  EXPECT(probe.speed() > 0);
}

}  // namespace

int main() {
  PercentileRule();
  SpanSelfTime();
  Digest();
  CycleTiming();
  HostSpeedScaling();
  if (g_failures) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
