#include "fabric/topology.h"

#include <set>

namespace ipsa::fabric {

Status Topology::Validate() const {
  auto check_ref = [this](const PortRef& ref, const char* what) -> Status {
    if (ref.node >= nodes.size()) {
      return InvalidArgument(std::string(what) + ": node index " +
                             std::to_string(ref.node) + " out of range");
    }
    if (ref.port >= nodes[ref.node].port_count) {
      return InvalidArgument(std::string(what) + ": port " +
                             std::to_string(ref.port) + " out of range on '" +
                             nodes[ref.node].name + "'");
    }
    return OkStatus();
  };
  // A port carries at most one attachment — link end or host.
  std::set<std::pair<uint32_t, uint32_t>> used;
  auto claim = [&used](const PortRef& ref, const char* what) -> Status {
    if (!used.insert({ref.node, ref.port}).second) {
      return InvalidArgument(std::string(what) + ": node " +
                             std::to_string(ref.node) + " port " +
                             std::to_string(ref.port) +
                             " already attached to a link or host");
    }
    return OkStatus();
  };
  for (const LinkSpec& link : links) {
    IPSA_RETURN_IF_ERROR(check_ref(link.a, "link"));
    IPSA_RETURN_IF_ERROR(check_ref(link.b, "link"));
    if (link.a == link.b) return InvalidArgument("link connects a port to itself");
    if (link.loss < 0.0 || link.loss > 1.0) {
      return InvalidArgument("link loss must be within [0, 1]");
    }
    IPSA_RETURN_IF_ERROR(claim(link.a, "link"));
    IPSA_RETURN_IF_ERROR(claim(link.b, "link"));
  }
  for (const HostSpec& host : hosts) {
    IPSA_RETURN_IF_ERROR(check_ref(host.attach, "host"));
    IPSA_RETURN_IF_ERROR(claim(host.attach, "host"));
  }
  for (const NodeSpec& node : nodes) {
    if (node.name.empty()) return InvalidArgument("node needs a name");
    if (node.remote() && node.udp_ports.empty()) {
      return InvalidArgument("remote node '" + node.name +
                             "' exposes no UDP data ports");
    }
  }
  return OkStatus();
}

}  // namespace ipsa::fabric
