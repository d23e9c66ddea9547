// Use case C2 (paper §4.2): load IPv6 Segment Routing into a running
// switch. SRv6 introduces a NEW protocol header (the SRH) — the controller
// script links it into the live parse graph (`link_header`, Fig. 5c), which
// is exactly what PISA cannot do without a full front-parser rebuild.
#include <cstdio>

#include "controller/baseline.h"
#include "controller/controller.h"
#include "controller/designs.h"
#include "net/packet_builder.h"
#include "net/workload.h"

using namespace ipsa;

int main() {
  ipbm::IpbmSwitch device;
  controller::Rp4FlowController controller(device, compiler::Rp4bcOptions{});
  controller::BaselineConfig config;
  auto add = [&controller](const std::string& t, const table::Entry& e) {
    return controller.AddEntry(t, e);
  };
  if (!controller.LoadBaseFromP4(controller::designs::BaseP4()).ok() ||
      !controller::PopulateBaseline(controller.api(), add, config).ok()) {
    std::fprintf(stderr, "base setup failed\n");
    return 1;
  }
  std::printf("Header types before: srh registered? %s\n",
              device.headers().Has("srh") ? "yes" : "no");

  std::printf("\nLoading SRv6 at runtime (Fig. 5c script):\n%s\n",
              controller::designs::Srv6Script().c_str());
  auto timing = controller.ApplyScript(controller::designs::Srv6Script(),
                                       controller::designs::ResolveSnippet);
  if (!timing.ok()) {
    std::fprintf(stderr, "update failed: %s\n",
                 timing.status().ToString().c_str());
    return 1;
  }
  std::printf("update compiled in %.2f ms, applied in %.2f ms\n",
              timing->compile_ms, timing->load_ms);
  std::printf("Header types after:  srh registered? %s, ipv6 --tag 43--> %s\n",
              device.headers().Has("srh") ? "yes" : "no",
              std::string((*device.headers().Get("ipv6"))
                              ->NextNameFor(43)
                              .value_or("<none>"))
                  .c_str());
  if (!controller::PopulateSrv6(controller.api(), add, config).ok()) {
    std::fprintf(stderr, "srv6 populate failed\n");
    return 1;
  }

  // --- SR endpoint processing ---------------------------------------------------
  // A packet destined to local SID #3 with segment list [final, sid3] and
  // SL=1: the End behaviour decrements SL and rewrites the IPv6 destination
  // to the next segment.
  net::Ipv6Addr sid = controller::Srv6Sid(3);
  net::Ipv6Addr final_dst =
      net::Ipv6Addr::FromGroups({0x2001, 0xdb8, 0xff, 0, 0, 0, 0, 5});
  net::WorkloadConfig wcfg;
  net::Workload workload(wcfg);
  net::Packet packet = workload.Srv6Packet(sid, {final_dst, sid}, 1);

  net::Ipv6View before(packet.bytes().subspan(14));
  std::printf("\nSR endpoint: packet arrives with dst=%s, SL=1\n",
              before.dst().ToString().c_str());

  auto result = device.Process(packet, 0);
  if (!result.ok()) {
    std::fprintf(stderr, "processing failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  net::Ipv6View after(packet.bytes().subspan(14));
  net::SrhView srh(packet.bytes().subspan(14 + 40));
  std::printf("after End behaviour: dst=%s, SL=%u, egress port %u\n",
              after.dst().ToString().c_str(), srh.segments_left(),
              result->egress_port);
  bool ok = after.dst() == final_dst && srh.segments_left() == 0;
  std::printf("SRH End semantics: %s\n", ok ? "OK" : "WRONG");

  // Plain (non-SR) IPv6 still forwards — the base linkage was preserved.
  net::Packet plain =
      net::PacketBuilder()
          .Ethernet(net::MacAddr::FromUint64(config.router_mac_base),
                    net::MacAddr::FromUint64(0x020000000001ull),
                    net::kEtherTypeIpv6)
          .Ipv6(net::Ipv6Addr::FromGroups({0x2001, 0xdb8, 0, 0, 0, 0, 0, 1}),
                net::Ipv6Addr::FromGroups(
                    {0x2001, 0xdb8, 0xff, 0, 0, 0, 0, 7}),
                net::kIpProtoUdp)
          .Udp(1, 2)
          .Payload(16)
          .Build();
  auto plain_result = device.Process(plain, 0);
  std::printf("plain IPv6 forwarding still works: %s\n",
              plain_result.ok() && !plain_result->dropped ? "OK" : "BROKEN");
  return ok ? 0 : 1;
}
