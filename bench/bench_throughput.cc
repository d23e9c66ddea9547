// Reproduces §5 "Throughput": Mpps at a 200 MHz clock for the three use
// cases on the PISA and IPSA prototypes.
//
// Method: run the use-case workload through both behavioral devices; each
// packet reports its pipeline initiation interval (arch/ii_model.h — front-
// parser width for PISA; per-packet template load + JIT parse + crossbar
// bus beats for IPSA). Throughput = clock / E[II].
//
// Paper values @200MHz: PISA 187.33 / 153.71 / 191.93 Mpps,
//                       IPSA  65.81 /  51.36 /  86.62 Mpps.
// The reproduction targets the *shape*: PISA ~2-4x IPSA, C2 slowest on
// both (SRH-encapsulated traffic), C1/C3 near the top for PISA.
#include <cstdio>

#include "bench/common.h"
#include "controller/baseline.h"
#include "hw/models.h"

namespace ipsa::bench {
namespace {

constexpr int kPackets = 4000;

net::Packet PacketFor(UseCase uc, net::Workload& workload, int i) {
  if (uc == UseCase::kSrv6 &&
      (i % 10) < static_cast<int>(kSrv6TrafficFraction * 10)) {
    // SR-endpoint traffic: destined to a local SID with one segment left.
    net::Ipv6Addr sid = controller::Srv6Sid(static_cast<uint16_t>(i % 8));
    net::Ipv6Addr final_dst = net::Ipv6Addr::FromGroups(
        {0x2001, 0xdb8, 0xff, 0, 0, 0, 0,
         static_cast<uint16_t>(i % 16 + 1)});
    return workload.Srv6Packet(sid, {final_dst, sid}, 1);
  }
  return workload.NextPacket();
}

struct ThroughputRow {
  hw::ThroughputReport pisa;
  hw::ThroughputReport ipsa;
};

Result<ThroughputRow> Measure(UseCase uc) {
  net::WorkloadConfig wcfg = WorkloadFor(uc);
  net::Workload warm(wcfg);
  IPSA_ASSIGN_OR_RETURN(Rp4Setup rp4, MakeRp4Setup(uc, &warm));
  IPSA_ASSIGN_OR_RETURN(PisaSetup pisa, MakePisaSetup(uc, &warm));

  hw::ThroughputAccumulator pisa_acc, ipsa_acc;
  net::Workload gen_a(wcfg), gen_b(wcfg);
  for (int i = 0; i < kPackets; ++i) {
    net::Packet a = PacketFor(uc, gen_a, i);
    net::Packet b = PacketFor(uc, gen_b, i);
    IPSA_ASSIGN_OR_RETURN(telemetry::ProcessResult ra,
                          pisa.device->Process(a, 1));
    IPSA_ASSIGN_OR_RETURN(telemetry::ProcessResult rb,
                          rp4.device->Process(b, 1));
    pisa_acc.Add(ra.pipeline_ii);
    ipsa_acc.Add(rb.pipeline_ii);
  }
  return ThroughputRow{pisa_acc.Report(), ipsa_acc.Report()};
}

int Main() {
  std::printf("Sec.5 Throughput @200MHz (paper: PISA 187.33/153.71/191.93, "
              "IPSA 65.81/51.36/86.62 Mpps)\n\n");
  std::printf("%-10s %12s %12s %12s %12s %8s\n", "use case", "PISA E[II]",
              "PISA Mpps", "IPSA E[II]", "IPSA Mpps", "ratio");
  const UseCase cases[] = {UseCase::kEcmp, UseCase::kSrv6, UseCase::kProbe};
  for (UseCase uc : cases) {
    auto row = Measure(uc);
    if (!row.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", UseCaseName(uc),
                   row.status().ToString().c_str());
      return 1;
    }
    std::printf("%-10s %12.3f %12.2f %12.3f %12.2f %7.2fx\n",
                UseCaseName(uc), row->pisa.mean_ii, row->pisa.mpps,
                row->ipsa.mean_ii, row->ipsa.mpps,
                row->pisa.mpps / row->ipsa.mpps);
  }
  std::printf(
      "\nIPSA's decline comes from per-packet template-parameter loads and\n"
      "pool access over the bounded data bus (paper Sec.5); C2 is slowest\n"
      "on both architectures because SRH traffic parses the most bytes.\n");

  // Workload sensitivity: how the v6 share moves both architectures
  // (larger headers -> more parse bytes; >64B parsed -> a second PISA
  // front-parser cycle).
  std::printf("\nSensitivity: IPv6 share of C1 traffic vs throughput\n");
  std::printf("%-12s %12s %12s\n", "v6 fraction", "PISA Mpps", "IPSA Mpps");
  for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    net::WorkloadConfig wcfg = WorkloadFor(UseCase::kEcmp);
    wcfg.ipv6_fraction = frac;
    net::Workload warm(wcfg);
    auto rp4 = MakeRp4Setup(UseCase::kEcmp, &warm);
    auto pisa = MakePisaSetup(UseCase::kEcmp, &warm);
    if (!rp4.ok() || !pisa.ok()) return 1;
    hw::ThroughputAccumulator pisa_acc, ipsa_acc;
    net::Workload gen_a(wcfg), gen_b(wcfg);
    for (int i = 0; i < 1500; ++i) {
      net::Packet a = gen_a.NextPacket();
      net::Packet b = gen_b.NextPacket();
      auto ra = pisa->device->Process(a, 1);
      auto rb = rp4->device->Process(b, 1);
      if (!ra.ok() || !rb.ok()) return 1;
      pisa_acc.Add(ra->pipeline_ii);
      ipsa_acc.Add(rb->pipeline_ii);
    }
    std::printf("%-12.2f %12.2f %12.2f\n", frac, pisa_acc.Report().mpps,
                ipsa_acc.Report().mpps);
  }
  return 0;
}

}  // namespace
}  // namespace ipsa::bench

int main() { return ipsa::bench::Main(); }
