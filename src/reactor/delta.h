// Windowed deltas between consecutive telemetry snapshots.
//
// Policies react to *rates*, not lifetime totals: "this port stopped
// receiving", "that uplink carries 3x its sibling". A SourceWindow keeps the
// two most recent snapshots from one metric source and exposes the
// difference: per-port packet deltas.
//
// Staleness is first-class: every snapshot carries the collector's monotonic
// `seq`, so a window knows whether the latest poll actually advanced it
// (fresh), returned the same snapshot again (stale — conditions must not
// re-fire on it), or skipped snapshots entirely (missed, counted).
#pragma once

#include <cstdint>
#include <map>

#include "telemetry/metrics.h"

namespace ipsa::reactor {

// Per-port activity over one window.
struct PortWindow {
  uint64_t packets_in = 0;
  uint64_t packets_out = 0;
  uint64_t packets_marked = 0;
};

class SourceWindow {
 public:
  // Feeds the next snapshot. Returns the seq advance: 0 when the poll
  // returned an already-seen snapshot (window unchanged, not fresh), 1 for a
  // consecutive snapshot, >1 when snapshots were missed between polls. A seq
  // that went *backwards* (collector restarted) reseeds the window.
  uint64_t Push(const telemetry::MetricsSnapshot& snap);

  // A failed poll: the window keeps its data but is no longer fresh, so
  // conditions over it hold fire until the source recovers.
  void MarkStale() { fresh_ = false; }

  bool ready() const { return ready_; }  // two distinct snapshots seen
  bool fresh() const { return fresh_; }  // last Push advanced the window
  uint64_t seq() const { return cur_.seq; }
  uint64_t config_epoch() const { return cur_.config_epoch; }
  uint64_t missed() const { return missed_; }

  // Null when the port had no row in either snapshot.
  const PortWindow* port(uint32_t port) const;

  // Zero-default accessors, for conditions over possibly-idle ports.
  uint64_t PortIn(uint32_t p) const;

 private:
  telemetry::MetricsSnapshot prev_;
  telemetry::MetricsSnapshot cur_;
  std::map<uint32_t, PortWindow> ports_;
  bool has_cur_ = false;
  bool ready_ = false;
  bool fresh_ = false;
  uint64_t missed_ = 0;

  void Rebuild();
};

}  // namespace ipsa::reactor
