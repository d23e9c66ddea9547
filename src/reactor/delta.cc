#include "reactor/delta.h"

namespace ipsa::reactor {

uint64_t SourceWindow::Push(const telemetry::MetricsSnapshot& snap) {
  if (!has_cur_ || snap.seq < cur_.seq) {
    // First snapshot, or the collector restarted: reseed.
    cur_ = snap;
    has_cur_ = true;
    ready_ = false;
    fresh_ = false;
    ports_.clear();
    return 0;
  }
  if (snap.seq == cur_.seq) {
    fresh_ = false;
    return 0;
  }
  uint64_t advance = snap.seq - cur_.seq;
  if (advance > 1) missed_ += advance - 1;
  prev_ = std::move(cur_);
  cur_ = snap;
  ready_ = true;
  fresh_ = true;
  Rebuild();
  return advance;
}

void SourceWindow::Rebuild() {
  ports_.clear();
  // Counters are cumulative; a port present only in `cur` contributes
  // its full value, one present only in `prev` went quiet (delta 0). A
  // ResetMetrics between the snapshots makes cur < prev — treat cur as the
  // whole window rather than wrapping around.
  std::map<uint32_t, const telemetry::PortMetrics*> prev_ports;
  for (const auto& row : prev_.ports) prev_ports[row.port] = &row.metrics;
  auto sub = [](uint64_t c, uint64_t p) { return c >= p ? c - p : c; };
  for (const auto& row : cur_.ports) {
    PortWindow w;
    const telemetry::PortMetrics* p = nullptr;
    auto it = prev_ports.find(row.port);
    if (it != prev_ports.end()) p = it->second;
    w.packets_in = sub(row.metrics.packets_in, p ? p->packets_in : 0);
    w.packets_out = sub(row.metrics.packets_out, p ? p->packets_out : 0);
    w.packets_marked =
        sub(row.metrics.packets_marked, p ? p->packets_marked : 0);
    ports_[row.port] = w;
  }
}

const PortWindow* SourceWindow::port(uint32_t port) const {
  auto it = ports_.find(port);
  return it == ports_.end() ? nullptr : &it->second;
}

uint64_t SourceWindow::PortIn(uint32_t p) const {
  const PortWindow* w = port(p);
  return w == nullptr ? 0 : w->packets_in;
}

}  // namespace ipsa::reactor
