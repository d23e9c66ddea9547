// Declarative multi-switch topology: nodes, port-to-port links, edge hosts.
//
// A node is either an in-process behavioral switch (pisa or ipbm, hosted by
// the same DeviceBackend the daemon uses) or a remote switchd endpoint
// reached over its TCP control channel and per-port UDP packet plane. Links
// connect one node's port to another's, with a configurable per-traversal
// delay (in fabric steps), a deterministic seeded loss probability, and an
// up/down switch for failure injection. Hosts mark edge ports where
// delivered traffic leaves the fabric and is handed to the delivery oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "daemon/backends.h"
#include "util/status.h"

namespace ipsa::fabric {

struct PortRef {
  uint32_t node = 0;
  uint32_t port = 0;

  bool operator==(const PortRef&) const = default;
};

struct NodeSpec {
  std::string name;
  daemon::ArchKind arch = daemon::ArchKind::kIpsa;
  uint32_t port_count = 16;

  // Remote attachment: when control_port != 0 the node is a running switchd
  // at host:control_port whose device ports 0..udp_ports.size()-1 are
  // reachable at the given UDP ports (switchd --udp-port-base layout, or the
  // exact ports an in-process Switchd reports).
  std::string host = "127.0.0.1";
  uint16_t control_port = 0;
  std::vector<uint16_t> udp_ports;

  bool remote() const { return control_port != 0; }
};

struct LinkSpec {
  PortRef a;
  PortRef b;
  uint32_t delay_steps = 0;  // extra steps a packet spends in flight
  double loss = 0.0;         // per-packet drop probability (seeded PRNG)
  bool up = true;
};

struct HostSpec {
  std::string name;
  PortRef attach;
  uint32_t ipv4 = 0;   // host byte order
  uint64_t mac = 0;    // 48-bit
};

struct Topology {
  std::vector<NodeSpec> nodes;
  std::vector<LinkSpec> links;
  std::vector<HostSpec> hosts;

  // Structural validation: endpoint indices in range, no port used by more
  // than one link or host, loss probabilities in [0, 1].
  Status Validate() const;
};

}  // namespace ipsa::fabric
