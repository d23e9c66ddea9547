// The benchmark's three scenarios (fwd, insitu, switchd) behind one slice
// interface, so main.cc can interleave them in short alternating slices
// and a phase of the host hits every metric alike.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "net/packet.h"
#include "util/status.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// Correctness bookkeeping: every checked operation is attempted once; a
// wrong output or a failed call counts as failed, never as a crash.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> first_failures;  // capped, for the log

  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_failures.size() < 8) first_failures.push_back(what);
    }
    return ok;
  }
};

// One line of the per-layer ledger: a layer metric, its self time where it
// has one, and the end-to-end metric it should move.
struct LedgerLine {
  std::string metric;
  double value = 0;
  std::string unit;
  std::string moves;  // end-to-end metric, or "none"
};

// Human-readable account of how much of an end-to-end figure the traced
// layer spans explain.
struct Explained {
  std::string metric;   // end-to-end metric and what is compared
  double e2e_ns = 0;    // per unit of work, from the traced slices
  double layers_ns = 0; // sum of layer self times over the same unit
};

// A reported percentile and the sample count behind it, checked against
// the percentile rule (SupportedPercentile).
struct PercentileUse {
  std::string metric;
  double p = 50;
  size_t samples = 0;
};

struct Inputs {
  uint64_t seed = 1;
  uint32_t workers = 1;  // W for the multi-worker drain
};

class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual const char* name() const = 0;
  // Builds and populates the devices (or daemon) under test: the set-up a
  // user of the system waits for, and the only part setup_s times.
  virtual ipsa::Status Setup(const Inputs& in) = 0;
  // Builds what the benchmark itself needs, untimed: the seeded inputs,
  // the interpreter references and their digests, the layer probes.
  virtual ipsa::Status Prepare(const Inputs& in) = 0;
  // Runs work for about `budget_ns`. Every end-to-end duration recorded in
  // the slice is multiplied by `speed`, the host speed probed just before
  // it (1 = raw). With a tracer, the calls into each layer are recorded as
  // spans and the traced figures are kept apart from the untraced ones.
  virtual void RunSlice(int64_t budget_ns, double speed, Tracer* tracer) = 0;
  // Stops background machinery (daemon threads); called once, after the
  // last slice.
  virtual void Finish() {}
  // End-to-end figures from the untraced (traced=false) or traced slices.
  virtual void Report(bool traced, MetricMap& out) const = 0;
  // Percentiles reported from the untraced slices, and free-form notes
  // (e.g. how late an open-loop generator ran).
  virtual void Describe(std::vector<PercentileUse>& /*percentiles*/,
                        std::vector<std::string>& /*notes*/) const {}
  // Per-layer figures from the traced slices.
  virtual void ReportLayers(const Tracer& tracer,
                            std::vector<LedgerLine>& lines,
                            std::vector<Explained>& explained) const = 0;

  Outcome outcome;
};

std::unique_ptr<Scenario> MakeFwd();
std::unique_ptr<Scenario> MakeInsitu();
std::unique_ptr<Scenario> MakeSwitchd();

// --- shared inputs -----------------------------------------------------------

// Traffic of the C1-ECMP design (v4/v6 mix, bench/common.h), with the flows
// drawn from `seed` and minimum-size frames.
std::vector<ipsa::net::Packet> EcmpTraffic(uint64_t seed, size_t count);

// Digest of a processed batch: the packets' bytes plus each result's verdict.
template <typename Results>
uint64_t BatchDigest(const std::vector<ipsa::net::Packet>& pkts,
                     const Results& results) {
  TxDigest d;
  for (size_t i = 0; i < pkts.size(); ++i) {
    if (results[i].dropped) {
      d.AddDrop();
    } else {
      d.Add(results[i].egress_port, pkts[i].bytes());
    }
  }
  return d.value();
}

// Global allocation counter (operator new hook in main.cc); counts only
// while `AllocCountingOn` is set.
uint64_t AllocCount();
void SetAllocCounting(bool on);

}  // namespace perfbench
