// Declarative reaction conditions over snapshot windows.
//
// A condition reads one or two SourceWindows by source name and reduces to a
// bool. All kinds are rate/threshold tests over one polling window — the
// reactor's Tick() cadence is the measurement interval, the same way a
// hardware Mantis dialogue runs per control-loop iteration.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "reactor/delta.h"

namespace ipsa::reactor {

enum class ConditionKind : uint8_t {
  // Link/port failure: `source`:`port` received nothing this window while
  // the guard (`guard_source`:`guard_port`) received at least min_count.
  // Port metrics are ingress-attributed, so the guard is another ingress
  // port that should be active whenever the watched one is — it keeps a
  // merely idle fabric from reading as a failure.
  kPortRateStall = 0,
  // `source`:`port` received at least `threshold` packets this window.
  kPortRateAbove = 2,
  // `source`:`port` received fewer than `threshold` packets this window
  // (the clear side of an on/off toggle).
  kPortRateBelow = 3,
  // Load imbalance: in(`source`:`port`) > ratio * in(`guard_source`:
  // `guard_port`), with at least min_count packets into the hot port.
  // The two sides may live on different sources (e.g. two spines' ports
  // facing the same leaf — the leaf's upstream ECMP split seen from the
  // receiving ends, since ports count ingress).
  kPortRateRatioAbove = 4,
};

struct Condition {
  ConditionKind kind = ConditionKind::kPortRateAbove;
  std::string source;        // SourceWindow name the condition reads
  std::string guard_source;  // stall/ratio second side ("" = same as source)
  uint32_t port = 0;
  uint32_t guard_port = 0;
  uint64_t threshold = 0;  // packets
  uint64_t min_count = 1;  // observation floor before the test applies
  double ratio = 0.0;

  std::string ToString() const;
};

// Convenience constructors.
Condition PortRateStall(std::string source, uint32_t port,
                        std::string guard_source, uint32_t guard_port,
                        uint64_t guard_min);
Condition PortRateAbove(std::string source, uint32_t port, uint64_t packets);
Condition PortRateBelow(std::string source, uint32_t port, uint64_t packets);
Condition PortRateRatioAbove(std::string hot_source, uint32_t hot_port,
                             std::string cold_source, uint32_t cold_port,
                             double ratio, uint64_t min_count = 1);

// True when the condition holds over the named windows. Every referenced
// window must be ready (two snapshots) and fresh (advanced by the last
// poll); otherwise the condition is false — a stalled collector must not
// look like a stalled port.
bool Evaluate(const Condition& c,
              const std::map<std::string, SourceWindow>& windows);

}  // namespace ipsa::reactor
