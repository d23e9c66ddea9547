#include "fabric/fabric.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "fabric/flow_tag.h"

namespace ipsa::fabric {

std::string OracleReport::ToString() const {
  std::ostringstream os;
  os << "injected=" << injected << " delivered=" << delivered
     << " misdelivered=" << misdelivered << " untagged=" << untagged_tx
     << " unmapped=" << unmapped_tx << " device_drops=" << device_drops
     << " link_down=" << link_down_drops << " link_loss=" << link_loss_drops
     << " rx_overflow=" << rx_overflow << " lost=" << lost
     << " shadow_mismatches=" << shadow_mismatches << " steps=" << steps
     << (ok() ? " [OK]" : " [FAIL]");
  return os.str();
}

Result<std::unique_ptr<Fabric>> Fabric::Build(Topology topo,
                                              FabricOptions options) {
  IPSA_RETURN_IF_ERROR(topo.Validate());
  std::unique_ptr<Fabric> fab(new Fabric(std::move(topo), options));

  for (const NodeSpec& spec : fab->topo_.nodes) {
    if (spec.remote()) {
      IPSA_ASSIGN_OR_RETURN(
          std::unique_ptr<RemoteNode> node,
          RemoteNode::Connect(spec.name, spec.host, spec.control_port,
                              spec.udp_ports, options.remote_io_timeout_ms));
      fab->nodes_.push_back(std::move(node));
      fab->shadow_.push_back(nullptr);
    } else {
      fab->nodes_.push_back(std::make_unique<LocalNode>(
          spec.name, spec.arch, spec.port_count, options.drain_workers));
      if (options.shadow_oracle) {
        auto twin = daemon::MakeBackend(spec.arch);
        twin->SetExecMode(arch::ExecMode::kInterpret);
        fab->shadow_.push_back(std::move(twin));
      } else {
        fab->shadow_.push_back(nullptr);
      }
    }
  }

  fab->attach_.resize(fab->nodes_.size());
  for (uint32_t n = 0; n < fab->nodes_.size(); ++n) {
    fab->attach_[n].resize(fab->topo_.nodes[n].port_count);
  }
  for (uint32_t l = 0; l < fab->topo_.links.size(); ++l) {
    const LinkSpec& link = fab->topo_.links[l];
    fab->attach_[link.a.node][link.a.port] = {Attachment::Kind::kLink, l};
    fab->attach_[link.b.node][link.b.port] = {Attachment::Kind::kLink, l};
  }
  for (uint32_t h = 0; h < fab->topo_.hosts.size(); ++h) {
    const PortRef& at = fab->topo_.hosts[h].attach;
    fab->attach_[at.node][at.port] = {Attachment::Kind::kHost, h};
  }

  fab->dropped_base_.assign(fab->nodes_.size(), 0);
  fab->host_rx_.resize(fab->topo_.hosts.size());
  IPSA_RETURN_IF_ERROR(fab->BeginWindow());
  return fab;
}

Result<rpc::InstallOutcome> Fabric::InstallOn(uint32_t node,
                                              rpc::InstallKind kind,
                                              const std::string& source) {
  if (node >= nodes_.size()) return InvalidArgument("node index out of range");
  IPSA_ASSIGN_OR_RETURN(rpc::InstallOutcome outcome,
                        nodes_[node]->Install(kind, source));
  if (shadow_[node]) {
    IPSA_RETURN_IF_ERROR(shadow_[node]->Install(kind, source).status());
  }
  return outcome;
}

Status Fabric::InstallAll(rpc::InstallKind kind, const std::string& source) {
  for (uint32_t n = 0; n < nodes_.size(); ++n) {
    IPSA_RETURN_IF_ERROR(InstallOn(n, kind, source).status());
  }
  return OkStatus();
}

Status Fabric::ApplyTableOp(uint32_t node, const rpc::TableOp& op) {
  if (node >= nodes_.size()) return InvalidArgument("node index out of range");
  IPSA_RETURN_IF_ERROR(nodes_[node]->ApplyTableOp(op));
  if (shadow_[node]) {
    IPSA_RETURN_IF_ERROR(shadow_[node]->ApplyTableOp(op));
  }
  return OkStatus();
}

Status Fabric::SetLinkUp(uint32_t link_index, bool up) {
  if (link_index >= topo_.links.size()) {
    return InvalidArgument("link index out of range");
  }
  topo_.links[link_index].up = up;
  return OkStatus();
}

Result<uint32_t> Fabric::FindLink(const PortRef& a, const PortRef& b) const {
  for (uint32_t l = 0; l < topo_.links.size(); ++l) {
    const LinkSpec& link = topo_.links[l];
    if ((link.a == a && link.b == b) || (link.a == b && link.b == a)) {
      return l;
    }
  }
  return NotFound("no such link");
}

Status Fabric::DeliverTo(const PortRef& dst, const net::Packet& packet) {
  IPSA_ASSIGN_OR_RETURN(bool accepted,
                        nodes_[dst.node]->InjectRx(dst.port, packet));
  if (!accepted) {
    ++rx_overflow_;
    return OkStatus();
  }
  if (shadow_[dst.node]) {
    net::Packet copy(packet.bytes());
    shadow_[dst.node]->ports().port(dst.port).rx().Push(std::move(copy));
  }
  return OkStatus();
}

Status Fabric::InjectAtHost(uint32_t host_index, const net::Packet& packet,
                            uint32_t expected_host) {
  if (host_index >= topo_.hosts.size() ||
      expected_host >= topo_.hosts.size()) {
    return InvalidArgument("host index out of range");
  }
  std::optional<FlowTag> tag = ReadFlowTag(packet.bytes());
  if (!tag.has_value()) {
    return InvalidArgument("injected packet carries no flow tag");
  }
  FlowCount& flow = flows_[tag->flow_id];
  if (flow.injected == 0) {
    flow.expected_host = expected_host;
  } else if (flow.expected_host != expected_host) {
    return InvalidArgument("flow " + std::to_string(tag->flow_id) +
                           " re-injected with a different expected host");
  }
  ++flow.injected;
  ++injected_;
  return DeliverTo(topo_.hosts[host_index].attach, packet);
}

void Fabric::RouteTx(uint32_t node, daemon::TxPacket& tx) {
  if (tx.port >= attach_[node].size()) {
    ++unmapped_tx_;
    return;
  }
  const Attachment& at = attach_[node][tx.port];
  switch (at.kind) {
    case Attachment::Kind::kHost: {
      if (options_.capture_host_rx) {
        host_rx_[at.index].push_back(tx.packet);
      }
      std::optional<FlowTag> tag = ReadFlowTag(tx.packet.bytes());
      if (!tag.has_value()) {
        ++untagged_tx_;
        return;
      }
      auto it = flows_.find(tag->flow_id);
      if (it == flows_.end() || it->second.expected_host != at.index) {
        ++misdelivered_;
        return;
      }
      ++it->second.delivered;
      ++delivered_;
      return;
    }
    case Attachment::Kind::kLink: {
      const LinkSpec& link = topo_.links[at.index];
      if (!link.up) {
        ++link_down_drops_;
        return;
      }
      if (link.loss > 0.0) {
        std::uniform_real_distribution<double> roll(0.0, 1.0);
        if (roll(rng_) < link.loss) {
          ++link_loss_drops_;
          return;
        }
      }
      PortRef peer = (link.a.node == node && link.a.port == tx.port)
                         ? link.b
                         : link.a;
      in_flight_.push_back(InFlight{.due = step_ + 1 + link.delay_steps,
                                    .dst = peer,
                                    .packet = std::move(tx.packet)});
      return;
    }
    case Attachment::Kind::kNone:
      ++unmapped_tx_;
      return;
  }
}

Status Fabric::CompareShadow(uint32_t node) {
  daemon::DeviceBackend& twin = *shadow_[node];
  IPSA_RETURN_IF_ERROR(twin.RunToCompletion(1).status());
  shadow_tx_scratch_.clear();
  daemon::CollectTxInto(twin.ports(), shadow_tx_scratch_);

  bool diff = shadow_tx_scratch_.size() != tx_scratch_.size();
  for (size_t i = 0; !diff && i < tx_scratch_.size(); ++i) {
    const auto& a = tx_scratch_[i];
    const auto& b = shadow_tx_scratch_[i];
    diff = a.port != b.port ||
           !std::ranges::equal(a.packet.bytes(), b.packet.bytes());
  }
  if (diff) {
    ++shadow_mismatches_;
    if (first_shadow_diff_.empty()) {
      std::ostringstream os;
      os << "node '" << nodes_[node]->name() << "' step " << step_
         << ": primary egressed " << tx_scratch_.size()
         << " packets, interpreter twin " << shadow_tx_scratch_.size();
      first_shadow_diff_ = os.str();
    }
  }
  return OkStatus();
}

Status Fabric::DrainNode(uint32_t node) {
  tx_scratch_.clear();
  IPSA_RETURN_IF_ERROR(nodes_[node]->DrainAndCollect(tx_scratch_));
  if (shadow_[node]) IPSA_RETURN_IF_ERROR(CompareShadow(node));
  for (daemon::TxPacket& tx : tx_scratch_) RouteTx(node, tx);
  return OkStatus();
}

Status Fabric::Step() {
  ++step_;
  // Deliver everything whose flight time has elapsed, preserving the order
  // the packets were put in flight (determinism).
  size_t kept = 0;
  for (size_t i = 0; i < in_flight_.size(); ++i) {
    if (in_flight_[i].due <= step_) {
      IPSA_RETURN_IF_ERROR(
          DeliverTo(in_flight_[i].dst, in_flight_[i].packet));
    } else {
      if (kept != i) in_flight_[kept] = std::move(in_flight_[i]);
      ++kept;
    }
  }
  in_flight_.resize(kept);

  for (uint32_t n = 0; n < nodes_.size(); ++n) {
    IPSA_RETURN_IF_ERROR(DrainNode(n));
  }
  return OkStatus();
}

bool Fabric::Quiescent() {
  if (!in_flight_.empty()) return false;
  for (auto& node : nodes_) {
    if (node->PendingRx() != 0) return false;
  }
  return true;
}

Result<uint32_t> Fabric::RunUntilQuiescent() {
  for (uint32_t s = 0; s < options_.max_steps; ++s) {
    if (Quiescent()) return s;
    IPSA_RETURN_IF_ERROR(Step());
  }
  if (Quiescent()) return options_.max_steps;
  return DeadlineExceeded("fabric not quiescent after " +
                          std::to_string(options_.max_steps) +
                          " steps (routing loop?)");
}

Status Fabric::BeginWindow() {
  if (!Quiescent()) {
    return FailedPrecondition("BeginWindow requires a quiescent fabric");
  }
  flows_.clear();
  injected_ = delivered_ = misdelivered_ = untagged_tx_ = unmapped_tx_ = 0;
  link_down_drops_ = link_loss_drops_ = rx_overflow_ = 0;
  shadow_mismatches_ = 0;
  first_shadow_diff_.clear();
  window_start_step_ = step_;
  for (uint32_t n = 0; n < nodes_.size(); ++n) {
    IPSA_ASSIGN_OR_RETURN(rpc::StatsResponse stats, nodes_[n]->QueryStats());
    dropped_base_[n] = stats.packets_dropped;
  }
  return OkStatus();
}

Result<OracleReport> Fabric::CheckOracle() {
  if (!Quiescent()) {
    return FailedPrecondition("CheckOracle requires a quiescent fabric");
  }
  OracleReport report;
  report.injected = injected_;
  report.delivered = delivered_;
  report.misdelivered = misdelivered_;
  report.untagged_tx = untagged_tx_;
  report.unmapped_tx = unmapped_tx_;
  report.link_down_drops = link_down_drops_;
  report.link_loss_drops = link_loss_drops_;
  report.rx_overflow = rx_overflow_;
  report.shadow_mismatches = shadow_mismatches_;
  report.steps = static_cast<uint32_t>(step_ - window_start_step_);
  for (uint32_t n = 0; n < nodes_.size(); ++n) {
    IPSA_ASSIGN_OR_RETURN(rpc::StatsResponse stats, nodes_[n]->QueryStats());
    report.device_drops += stats.packets_dropped - dropped_base_[n];
  }
  report.lost = static_cast<int64_t>(report.injected) -
                static_cast<int64_t>(report.delivered + report.misdelivered +
                                     report.untagged_tx + report.unmapped_tx +
                                     report.device_drops +
                                     report.link_down_drops +
                                     report.link_loss_drops +
                                     report.rx_overflow);
  return report;
}

std::vector<net::Packet> Fabric::TakeHostRx(uint32_t host_index) {
  if (host_index >= host_rx_.size()) return {};
  std::vector<net::Packet> out = std::move(host_rx_[host_index]);
  host_rx_[host_index].clear();
  return out;
}

}  // namespace ipsa::fabric
