#include "reactor/policy.h"

namespace ipsa::reactor {

std::string Condition::ToString() const {
  switch (kind) {
    case ConditionKind::kPortRateStall:
      return "stall(" + source + ":" + std::to_string(port) + " while " +
             (guard_source.empty() ? source : guard_source) + ":" +
             std::to_string(guard_port) +
             " in>=" + std::to_string(min_count) + ")";
    case ConditionKind::kPortRateAbove:
      return "in(" + source + ":" + std::to_string(port) +
             ") >= " + std::to_string(threshold);
    case ConditionKind::kPortRateBelow:
      return "in(" + source + ":" + std::to_string(port) + ") < " +
             std::to_string(threshold);
    case ConditionKind::kPortRateRatioAbove:
      return "in(" + source + ":" + std::to_string(port) + ") > " +
             std::to_string(ratio) + " * in(" +
             (guard_source.empty() ? source : guard_source) + ":" +
             std::to_string(guard_port) + ")";
  }
  return "condition(?)";
}

Condition PortRateStall(std::string source, uint32_t port,
                        std::string guard_source, uint32_t guard_port,
                        uint64_t guard_min) {
  Condition c;
  c.kind = ConditionKind::kPortRateStall;
  c.source = std::move(source);
  c.port = port;
  c.guard_source = std::move(guard_source);
  c.guard_port = guard_port;
  c.min_count = guard_min;
  return c;
}

Condition PortRateAbove(std::string source, uint32_t port, uint64_t packets) {
  Condition c;
  c.kind = ConditionKind::kPortRateAbove;
  c.source = std::move(source);
  c.port = port;
  c.threshold = packets;
  return c;
}

Condition PortRateBelow(std::string source, uint32_t port, uint64_t packets) {
  Condition c;
  c.kind = ConditionKind::kPortRateBelow;
  c.source = std::move(source);
  c.port = port;
  c.threshold = packets;
  return c;
}

Condition PortRateRatioAbove(std::string hot_source, uint32_t hot_port,
                             std::string cold_source, uint32_t cold_port,
                             double ratio, uint64_t min_count) {
  Condition c;
  c.kind = ConditionKind::kPortRateRatioAbove;
  c.source = std::move(hot_source);
  c.port = hot_port;
  c.guard_source = std::move(cold_source);
  c.guard_port = cold_port;
  c.ratio = ratio;
  c.min_count = min_count;
  return c;
}

namespace {

const SourceWindow* ReadyWindow(
    const std::map<std::string, SourceWindow>& windows,
    const std::string& name) {
  auto it = windows.find(name);
  if (it == windows.end()) return nullptr;
  if (!it->second.ready() || !it->second.fresh()) return nullptr;
  return &it->second;
}

}  // namespace

bool Evaluate(const Condition& c,
              const std::map<std::string, SourceWindow>& windows) {
  const SourceWindow* w = ReadyWindow(windows, c.source);
  if (w == nullptr) return false;
  switch (c.kind) {
    case ConditionKind::kPortRateStall: {
      const SourceWindow* g = ReadyWindow(
          windows, c.guard_source.empty() ? c.source : c.guard_source);
      if (g == nullptr) return false;
      return w->PortIn(c.port) == 0 && g->PortIn(c.guard_port) >= c.min_count;
    }
    case ConditionKind::kPortRateAbove:
      return w->PortIn(c.port) >= c.threshold;
    case ConditionKind::kPortRateBelow:
      return w->PortIn(c.port) < c.threshold;
    case ConditionKind::kPortRateRatioAbove: {
      const SourceWindow* g = ReadyWindow(
          windows, c.guard_source.empty() ? c.source : c.guard_source);
      if (g == nullptr) return false;
      uint64_t hot = w->PortIn(c.port);
      uint64_t cold = g->PortIn(c.guard_port);
      if (hot < c.min_count) return false;
      return static_cast<double>(hot) >
             c.ratio * static_cast<double>(cold == 0 ? 1 : cold);
    }
  }
  return false;
}

}  // namespace ipsa::reactor
