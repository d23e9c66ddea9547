// Measurement helpers shared by the benchmark scenarios: the percentile
// rule, the host-speed probe, the TX digest that gates every timing, the
// in-situ cycle clock, and the span recorder of the traced run. Header-only
// so the self-test links nothing but this file.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- percentiles -------------------------------------------------------------

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample. Empty -> 0.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}

// The reporting rule: the highest of p50/p90/p99/p99.9 that still has at
// least ten samples beyond it, so a reported tail repeats from run to run.
// Returns 0 when even the median is unsupported (fewer than 20 samples).
inline double SupportedPercentile(size_t samples) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    double beyond = static_cast<double>(samples) * (1.0 - p / 100.0);
    if (beyond >= 10.0 - 1e-9) best = p;
  }
  return best;
}

// Median, over consecutive blocks of `block` samples, of each block's p-th
// percentile. A host hiccup (a descheduled vCPU) that hits a few blocks
// moves only their tails; `block` must support p by the rule above.
inline double BlockedPercentile(const std::vector<double>& v, double p,
                                size_t block) {
  std::vector<double> per_block;
  for (size_t i = 0; block > 0 && i + block <= v.size(); i += block) {
    per_block.push_back(Percentile(
        std::vector<double>(v.begin() + static_cast<long>(i),
                            v.begin() + static_cast<long>(i + block)),
        p));
  }
  return Median(std::move(per_block));
}

// --- host speed --------------------------------------------------------------

// A fixed pure-ALU loop (SplitMix64 steps) run in short bursts between the
// scenario slices. On a shared host the clock rate of the vCPU drifts by
// tens of percent over seconds; the probe's rate moves with it, so timed
// figures can be scaled to a nominal host speed (see README.md).
class HostProbe {
 public:
  // Iterations per second of the probe on the nominal host.
  static constexpr double kNominalRate = 7.0e8;

  // Runs one burst; returns the host speed it measured.
  double Run(int64_t budget_ns) {
    const int64_t t0 = NowNs();
    const uint64_t iters0 = iters_;
    const int64_t end = t0 + budget_ns;
    int64_t now = t0;
    while (now < end) {
      for (int i = 0; i < kChunk; ++i) {
        x_ += 0x9e3779b97f4a7c15ull;
        uint64_t z = x_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        sink_ += z ^ (z >> 31);
      }
      // Keeps the loop's result live even when nobody reads sink().
      asm volatile("" : "+r"(sink_));
      iters_ += kChunk;
      now = NowNs();
    }
    ns_ += static_cast<double>(now - t0);
    return static_cast<double>(iters_ - iters0) * 1e9 /
           static_cast<double>(now - t0) / kNominalRate;
  }
  // Mean host speed over all bursts relative to nominal (>1: faster than
  // nominal). 1 before any burst has run.
  double speed() const {
    return ns_ > 0 ? static_cast<double>(iters_) * 1e9 / ns_ / kNominalRate
                   : 1.0;
  }

 private:
  static constexpr int kChunk = 1 << 14;
  uint64_t x_ = 1, sink_ = 0, iters_ = 0;
  double ns_ = 0;
};

// Scales a measured figure to the nominal host: rates divide by the speed,
// durations multiply by it, other units (counts, MB) are left alone.
inline double ScaleToNominal(double value, const std::string& unit,
                             double speed) {
  if (unit.size() > 2 && unit.compare(unit.size() - 2, 2, "/s") == 0) {
    return value / speed;
  }
  if (unit == "s" || unit == "ms" || unit == "us" || unit == "ns") {
    return value * speed;
  }
  return value;
}

// --- TX digest ---------------------------------------------------------------

// Order-sensitive FNV-1a digest over (egress port, bytes) of every packet a
// device emits. Reference digests are computed once at set-up on
// interpreter-mode devices; a timed batch whose digest differs counts as a
// failed operation.
class TxDigest {
 public:
  void Add(uint32_t port, std::span<const uint8_t> bytes) {
    Mix(port);
    Mix(static_cast<uint32_t>(bytes.size()));
    for (uint8_t b : bytes) Byte(b);
  }
  // A dropped packet contributes a marker instead of its bytes.
  void AddDrop() { Mix(0xFFFFFFFFu); }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  void Mix(uint32_t v) {
    for (int i = 0; i < 4; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  uint64_t h_ = 1469598103934665603ull;
};

// --- in-situ cycle clock -----------------------------------------------------

// Times whole insert+remove cycles: a cycle opens when the insert script is
// issued and closes when the first batch after the remove has been
// forwarded. Timing whole pairs keeps the sample unimodal (an insert costs
// apply plus populate, a remove only apply).
class CycleClock {
 public:
  // `scale` multiplies the cycle's duration (the host-speed scaling).
  void InsertIssued(int64_t t_ns, double scale = 1.0) {
    open_ = true;
    removed_ = false;
    start_ns_ = t_ns;
    scale_ = scale;
  }
  void RemoveApplied() {
    if (open_) removed_ = true;
  }
  // Returns true when this batch closed a cycle.
  bool BatchForwarded(int64_t t_ns) {
    if (!open_ || !removed_) return false;
    samples_us_.push_back(static_cast<double>(t_ns - start_ns_) / 1e3 * scale_);
    open_ = removed_ = false;
    return true;
  }
  const std::vector<double>& samples_us() const { return samples_us_; }

 private:
  bool open_ = false;
  bool removed_ = false;
  int64_t start_ns_ = 0;
  double scale_ = 1.0;
  std::vector<double> samples_us_;
};

// --- spans -------------------------------------------------------------------

// One timed call into a layer. `parent` indexes the enclosing span (-1 for
// a root); spans of one batch or update share `id`.
struct Span {
  std::string name;
  int32_t parent = -1;
  uint64_t id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span store of the traced run, written out when the run ends.
class Tracer {
 public:
  int32_t Begin(std::string name, uint64_t id) {
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.id = id;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    int32_t idx = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }
  void End(int32_t idx) {
    spans_[static_cast<size_t>(idx)].end_ns = NowNs();
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }
  // Adds a finished span with explicit times (used by the self-test and by
  // callers that time a region themselves).
  int32_t Record(std::string name, int32_t parent, uint64_t id,
                 int64_t start_ns, int64_t end_ns) {
    spans_.push_back({std::move(name), parent, id, start_ns, end_ns});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

// RAII span: Begin on construction, End on destruction; a null tracer
// records nothing (the untraced slices).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, uint64_t id) : t_(t) {
    if (t_) idx_ = t_->Begin(name, id);
  }
  ~ScopedSpan() {
    if (t_) t_->End(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int32_t idx_ = -1;
};

// Self time per span name: each span's duration minus the part of its
// interval covered by its children (overlapping children counted once).
inline std::map<std::string, double> SelfTimeNs(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool have = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (have && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (have) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        have = true;
      }
    }
    if (have) covered += cur_hi - cur_lo;
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

// Total (inclusive) time and call count per span name.
struct SpanTotal {
  double total_ns = 0;
  uint64_t calls = 0;
};
inline std::map<std::string, SpanTotal> TotalTimeNs(
    const std::vector<Span>& spans) {
  std::map<std::string, SpanTotal> out;
  for (const Span& s : spans) {
    SpanTotal& t = out[s.name];
    t.total_ns += static_cast<double>(s.end_ns - s.start_ns);
    ++t.calls;
  }
  return out;
}

}  // namespace perfbench
