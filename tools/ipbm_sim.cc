// ipbm_sim — interactive driver for the IPSA behavioral switch.
//
// Brings up ipbm with the built-in base L2/L3 design (or a P4 file), then
// executes commands from stdin (or files given on the command line):
//
//   script <file|ecmp|srv6|probe>    apply a runtime-update script
//   populate [ecmp|srv6]             install baseline/use-case entries
//   v4 <src-ip> <dst-ip> [count]     inject IPv4/UDP packet(s)
//   v6 <low-group> [count]           inject IPv6 packet(s) to 2001:db8:ff::N
//   trace <src-ip> <dst-ip>          per-stage execution trace of one packet
//   map                              print the TSP mapping (Fig. 4 style)
//   tables                           per-table entries and hit/miss counters
//   stats                            device counters
//   source                           print the current base design as rP4
//   quit
//
// Example session:
//   $ ./build/tools/ipbm_sim
//   > populate
//   > v4 192.168.0.1 10.0.0.7
//   port 3  ttl 63
//   > script ecmp
//   > populate ecmp
//   > v4 192.168.0.1 10.0.0.7
//
// Packets flow through daemon::InjectAndDrain — the same RX-push +
// run-to-completion + TX-collect path switchd uses for UDP packet-in — so
// this tool and the networked daemon cannot diverge. `trace` keeps the
// single-packet Process path because tracing needs per-stage hooks.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "controller/baseline.h"
#include "controller/controller.h"
#include "controller/designs.h"
#include "daemon/backends.h"
#include "net/packet_builder.h"
#include "util/strings.h"

namespace ipsa::tools {
namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFound("cannot open '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class Session {
 public:
  Session() = default;

  Status Boot(const std::string& p4_path) {
    std::string source;
    if (p4_path.empty()) {
      source = controller::designs::BaseP4();
    } else {
      IPSA_ASSIGN_OR_RETURN(source, ReadFile(p4_path));
    }
    IPSA_ASSIGN_OR_RETURN(controller::FlowTiming timing,
                          fc().LoadBaseFromP4(source));
    std::printf("base design up (compile %.2f ms, load %.2f ms); type "
                "'populate' to install entries\n",
                timing.compile_ms, timing.load_ms);
    return OkStatus();
  }

  // Returns false on quit.
  bool Execute(const std::string& line) {
    std::vector<std::string> tokens = util::SplitWhitespace(line);
    if (tokens.empty() || tokens[0][0] == '#') return true;
    const std::string& cmd = tokens[0];
    Status s = OkStatus();
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "map") {
      std::printf("%s", dev().pipeline().MappingToString().c_str());
    } else if (cmd == "stats") {
      const auto& st = dev().stats();
      std::printf("packets in/out/drop: %llu/%llu/%llu  marked: %llu\n"
                  "config words: %llu  template writes: %llu  "
                  "table ops: %llu  drains: %llu\n",
                  (unsigned long long)st.packets_in,
                  (unsigned long long)st.packets_out,
                  (unsigned long long)st.packets_dropped,
                  (unsigned long long)st.packets_marked,
                  (unsigned long long)st.config_words_written,
                  (unsigned long long)st.template_writes,
                  (unsigned long long)st.table_ops,
                  (unsigned long long)dev().pipeline().drain_events());
    } else if (cmd == "source") {
      std::printf("%s", fc().CurrentRp4Source().c_str());
    } else if (cmd == "tables") {
      std::printf("%-18s %-9s %8s %8s %8s %8s\n", "table", "match",
                  "entries", "size", "hits", "misses");
      for (const auto& name : dev().catalog().TableNames()) {
        auto t = dev().catalog().Get(name);
        if (!t.ok()) continue;
        std::printf("%-18s %-9s %8u %8u %8llu %8llu\n", name.c_str(),
                    std::string(table::MatchKindName((*t)->spec().match_kind))
                        .c_str(),
                    (*t)->entry_count(), (*t)->spec().size,
                    (unsigned long long)(*t)->hits(),
                    (unsigned long long)(*t)->misses());
      }
    } else if (cmd == "script" && tokens.size() >= 2) {
      s = RunScript(tokens[1]);
    } else if (cmd == "populate") {
      s = Populate(tokens.size() > 1 ? tokens[1] : "");
    } else if (cmd == "v4" && tokens.size() >= 3) {
      int count = tokens.size() > 3 ? std::stoi(tokens[3]) : 1;
      s = SendV4(tokens[1], tokens[2], count);
    } else if (cmd == "trace" && tokens.size() >= 3) {
      s = TraceV4(tokens[1], tokens[2]);
    } else if (cmd == "v6" && tokens.size() >= 2) {
      int count = tokens.size() > 2 ? std::stoi(tokens[2]) : 1;
      s = SendV6(static_cast<uint16_t>(std::stoul(tokens[1])), count);
    } else {
      std::printf("unknown command '%s'\n", cmd.c_str());
    }
    if (!s.ok()) std::printf("error: %s\n", s.ToString().c_str());
    return true;
  }

 private:
  Status RunScript(const std::string& which) {
    std::string text;
    if (which == "ecmp") {
      text = controller::designs::EcmpScript();
    } else if (which == "srv6") {
      text = controller::designs::Srv6Script();
    } else if (which == "probe") {
      text = controller::designs::ProbeScript();
    } else {
      IPSA_ASSIGN_OR_RETURN(text, ReadFile(which));
    }
    IPSA_ASSIGN_OR_RETURN(
        controller::FlowTiming timing,
        fc().ApplyScript(text, controller::designs::ResolveSnippet));
    std::printf("update applied (compile %.2f ms, load %.2f ms)\n",
                timing.compile_ms, timing.load_ms);
    return OkStatus();
  }

  Status Populate(const std::string& which) {
    auto add = [this](const std::string& t, const table::Entry& e) {
      return fc().AddEntry(t, e);
    };
    if (which == "ecmp") {
      return controller::PopulateEcmp(fc().api(), add, config_);
    }
    if (which == "srv6") {
      return controller::PopulateSrv6(fc().api(), add, config_);
    }
    return controller::PopulateBaseline(fc().api(), add, config_);
  }

  Status SendV4(const std::string& src, const std::string& dst, int count) {
    for (int i = 0; i < count; ++i) {
      net::Packet p =
          net::PacketBuilder()
              .Ethernet(net::MacAddr::FromUint64(config_.router_mac_base),
                        net::MacAddr::FromUint64(0x020000000001ull),
                        net::kEtherTypeIpv4)
              .Ipv4(net::Ipv4Addr::FromString(src),
                    net::Ipv4Addr::FromString(dst), net::kIpProtoUdp)
              .Udp(static_cast<uint16_t>(4000 + i), 80)
              .Payload(32)
              .Build();
      IPSA_ASSIGN_OR_RETURN(std::vector<daemon::TxPacket> out,
                            daemon::InjectAndDrain(backend_, std::move(p), 0));
      if (out.empty()) {
        std::printf("DROPPED\n");
        continue;
      }
      for (daemon::TxPacket& tx : out) {
        net::Ipv4View ip(tx.packet.bytes().subspan(14));
        std::printf("port %u  ttl %u\n", tx.port, ip.ttl());
      }
    }
    return OkStatus();
  }

  // Per-stage execution trace of one IPv4 packet.
  Status TraceV4(const std::string& src, const std::string& dst) {
    net::Packet p =
        net::PacketBuilder()
            .Ethernet(net::MacAddr::FromUint64(config_.router_mac_base),
                      net::MacAddr::FromUint64(0x020000000001ull),
                      net::kEtherTypeIpv4)
            .Ipv4(net::Ipv4Addr::FromString(src),
                  net::Ipv4Addr::FromString(dst), net::kIpProtoUdp)
            .Udp(5555, 80)
            .Payload(32)
            .Build();
    telemetry::ProcessTrace trace;
    IPSA_ASSIGN_OR_RETURN(telemetry::ProcessResult r,
                          backend_.ProcessOne(p, 0, &trace));
    for (const auto& step : trace.steps) {
      std::printf("  TSP%-3u %-16s", step.unit, step.stage.c_str());
      if (step.table.empty()) {
        std::printf(" (guard skipped)");
      } else {
        std::printf(" %-14s %-4s -> %s", step.table.c_str(),
                    step.hit ? "HIT" : "miss", step.action.c_str());
      }
      if (step.parse_bytes > 0) {
        std::printf("  [parsed %llub]",
                    static_cast<unsigned long long>(step.parse_bytes));
      }
      std::printf("\n");
    }
    std::string headers;
    for (const auto& h : trace.parsed_headers) headers += h + " ";
    std::printf("  PHV: %s\n  verdict: port %u%s%s\n", headers.c_str(),
                r.egress_port, r.dropped ? " DROPPED" : "",
                r.marked ? " MARKED" : "");
    return OkStatus();
  }

  Status SendV6(uint16_t low_group, int count) {
    for (int i = 0; i < count; ++i) {
      net::Packet p =
          net::PacketBuilder()
              .Ethernet(net::MacAddr::FromUint64(config_.router_mac_base),
                        net::MacAddr::FromUint64(0x020000000001ull),
                        net::kEtherTypeIpv6)
              .Ipv6(net::Ipv6Addr::FromGroups(
                        {0x2001, 0xdb8, 0, 0, 0, 0, 0, 1}),
                    net::Ipv6Addr::FromGroups(
                        {0x2001, 0xdb8, 0xff, 0, 0, 0, 0, low_group}),
                    net::kIpProtoUdp)
              .Udp(static_cast<uint16_t>(4000 + i), 80)
              .Payload(32)
              .Build();
      IPSA_ASSIGN_OR_RETURN(std::vector<daemon::TxPacket> out,
                            daemon::InjectAndDrain(backend_, std::move(p), 0));
      if (out.empty()) {
        std::printf("DROPPED\n");
        continue;
      }
      for (daemon::TxPacket& tx : out) {
        net::Ipv6View ip(tx.packet.bytes().subspan(14));
        std::printf("port %u  hop_limit %u\n", tx.port, ip.hop_limit());
      }
    }
    return OkStatus();
  }

  ipbm::IpbmSwitch& dev() { return backend_.device(); }
  controller::Rp4FlowController& fc() { return backend_.controller(); }

  daemon::IpsaBackend backend_;
  controller::BaselineConfig config_;
};

constexpr char kUsage[] =
    "usage: ipbm_sim [--p4 FILE] [command-file...]\n"
    "\n"
    "Interactive driver for the IPSA behavioral switch. Boots the built-in\n"
    "base L2/L3 design (or FILE), then executes commands from stdin or the\n"
    "given command files. Commands:\n"
    "  script <file|ecmp|srv6|probe>    apply a runtime-update script\n"
    "  populate [ecmp|srv6]             install baseline/use-case entries\n"
    "  v4 <src-ip> <dst-ip> [count]     inject IPv4/UDP packet(s)\n"
    "  v6 <low-group> [count]           inject IPv6 packet(s)\n"
    "  trace <src-ip> <dst-ip>          per-stage trace of one packet\n"
    "  map | tables | stats | source    inspect the device\n"
    "  quit\n";

int Main(int argc, char** argv) {
  std::string p4_path;
  std::vector<std::string> command_files;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "-h" || a == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (a == "--p4") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ipbm_sim: --p4 needs a value\n\n%s", kUsage);
        return 2;
      }
      p4_path = argv[++i];
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "ipbm_sim: unknown option '%s'\n\n%s", a.c_str(),
                   kUsage);
      return 2;
    } else {
      command_files.push_back(a);
    }
  }

  Session session;
  if (Status s = session.Boot(p4_path); !s.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", s.ToString().c_str());
    return 1;
  }

  auto run_stream = [&session](std::istream& in, bool interactive) {
    std::string line;
    while (true) {
      if (interactive) {
        std::printf("> ");
        std::fflush(stdout);
      }
      if (!std::getline(in, line)) break;
      if (!session.Execute(line)) break;
    }
  };

  if (command_files.empty()) {
    run_stream(std::cin, true);
  } else {
    for (const auto& file : command_files) {
      std::ifstream in(file);
      if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", file.c_str());
        return 1;
      }
      run_stream(in, false);
    }
  }
  return 0;
}

}  // namespace
}  // namespace ipsa::tools

int main(int argc, char** argv) { return ipsa::tools::Main(argc, argv); }
