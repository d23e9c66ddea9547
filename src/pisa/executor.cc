#include "pisa/executor.h"

#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "table/rcu.h"

namespace ipsa::pisa {

Result<uint32_t> DrainPortsSharded(net::PortSet& ports, uint32_t workers,
                                   const ProcessFn& process) {
  const uint32_t port_count = ports.count();
  if (workers == 0) workers = 1;
  if (port_count > 0 && workers > port_count) workers = port_count;

  struct Emit {
    uint32_t egress_port;
    net::Packet packet;
  };
  // Forwarded packets per ingress port, in processing (FIFO) order. Each
  // worker writes only its own ports' buffers, so no locking is needed.
  std::vector<std::vector<Emit>> emitted(port_count);
  std::vector<uint32_t> processed(workers, 0);
  std::vector<std::optional<Status>> errors(port_count);

  auto drain_port = [&](uint32_t p, uint32_t worker) {
    while (auto packet = ports.port(p).rx().Pop()) {
      Result<telemetry::ProcessResult> r = process(*packet, p, worker);
      if (!r.ok()) {
        errors[p] = r.status();
        return;
      }
      ++processed[worker];
      if (!r->dropped && r->egress_port < port_count) {
        emitted[p].push_back(Emit{r->egress_port, std::move(*packet)});
      }
    }
  };

  if (workers <= 1) {
    table::rcu::Domain::ReadGuard pin(table::rcu::Domain::Global());
    for (uint32_t p = 0; p < port_count; ++p) drain_port(p, 0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (uint32_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        // One RCU pin per worker for its whole share of the drain.
        table::rcu::Domain::ReadGuard pin(table::rcu::Domain::Global());
        for (uint32_t p = w; p < port_count; p += workers) drain_port(p, w);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  for (uint32_t p = 0; p < port_count; ++p) {
    if (errors[p].has_value()) return *errors[p];
  }

  // Replay TX pushes in the serial drain's order: ascending ingress port,
  // FIFO within a port. Overflow drops land on the same packets they would
  // in a serial run.
  uint32_t total = 0;
  for (uint32_t p = 0; p < port_count; ++p) {
    for (Emit& e : emitted[p]) {
      ports.port(e.egress_port).tx().Push(std::move(e.packet));
    }
  }
  for (uint32_t w = 0; w < workers; ++w) total += processed[w];
  return total;
}

}  // namespace ipsa::pisa
