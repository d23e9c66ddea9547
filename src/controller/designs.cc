#include "controller/designs.h"

namespace ipsa::controller::designs {

namespace {

// Shared declarations (headers, metadata, parser) of every P4 variant.
constexpr const char kP4Prologue[] = R"p4(
header ethernet_t {
  bit<48> dst_addr;
  bit<48> src_addr;
  bit<16> ether_type;
}
header ipv4_t {
  bit<4> version;
  bit<4> ihl;
  bit<6> dscp;
  bit<2> ecn;
  bit<16> total_len;
  bit<16> identification;
  bit<3> flags;
  bit<13> frag_offset;
  bit<8> ttl;
  bit<8> protocol;
  bit<16> hdr_checksum;
  bit<32> src_addr;
  bit<32> dst_addr;
}
header ipv6_t {
  bit<4> version;
  bit<8> traffic_class;
  bit<20> flow_label;
  bit<16> payload_len;
  bit<8> next_hdr;
  bit<8> hop_limit;
  bit<128> src_addr;
  bit<128> dst_addr;
}
header tcp_t {
  bit<16> src_port;
  bit<16> dst_port;
  bit<32> seq_no;
  bit<32> ack_no;
  bit<4> data_offset;
  bit<4> res;
  bit<8> flags;
  bit<16> window;
  bit<16> checksum;
  bit<16> urgent_ptr;
}
header udp_t {
  bit<16> src_port;
  bit<16> dst_port;
  bit<16> length;
  bit<16> checksum;
}
struct metadata_t {
  bit<16> if_index;
  bit<16> bd;
  bit<16> vrf;
  bit<1> l3;
  bit<16> nexthop;
}
)p4";

constexpr const char kP4HeadersStructBase[] = R"p4(
struct headers_t {
  ethernet_t ethernet;
  ipv4_t ipv4;
  ipv6_t ipv6;
  tcp_t tcp;
  udp_t udp;
}
)p4";

constexpr const char kP4ParserBase[] = R"p4(
parser MainParser(packet_in pkt, out headers_t hdr, inout metadata_t meta) {
  state start {
    pkt.extract(hdr.ethernet);
    transition select(hdr.ethernet.ether_type) {
      0x0800: parse_ipv4;
      0x86DD: parse_ipv6;
      default: accept;
    }
  }
  state parse_ipv4 {
    pkt.extract(hdr.ipv4);
    transition select(hdr.ipv4.protocol) {
      6: parse_tcp;
      17: parse_udp;
      default: accept;
    }
  }
  state parse_ipv6 {
    pkt.extract(hdr.ipv6);
    transition select(hdr.ipv6.next_hdr) {
      6: parse_tcp;
      17: parse_udp;
      default: accept;
    }
  }
  state parse_tcp { pkt.extract(hdr.tcp); transition accept; }
  state parse_udp { pkt.extract(hdr.udp); transition accept; }
}
)p4";

// Ingress actions + tables shared by all variants.
constexpr const char kP4IngressDecls[] = R"p4(
  action set_if_index(bit<16> if_index) { meta.if_index = if_index; }
  action set_bd_vrf(bit<16> bd, bit<16> vrf) { meta.bd = bd; meta.vrf = vrf; }
  action set_l3() { meta.l3 = 1; }
  action set_nexthop(bit<16> nexthop) { meta.nexthop = nexthop; }
  action set_nh_bd_dmac(bit<16> bd, bit<48> dmac) {
    meta.bd = bd;
    hdr.ethernet.dst_addr = dmac;
  }

  table port_map {
    key = { meta.ingress_port: exact; }
    actions = { set_if_index; NoAction; }
    size = 64;
  }
  table bridge_vrf {
    key = { meta.if_index: exact; }
    actions = { set_bd_vrf; NoAction; }
    size = 256;
  }
  table l2_l3 {
    key = { hdr.ethernet.dst_addr: exact; }
    actions = { set_l3; NoAction; }
    size = 64;
  }
  table ipv4_host {
    key = { hdr.ipv4.dst_addr: exact; }
    actions = { set_nexthop; NoAction; }
    size = 4096;
  }
  table ipv6_host {
    key = { hdr.ipv6.dst_addr: exact; }
    actions = { set_nexthop; NoAction; }
    size = 4096;
  }
  table ipv4_lpm {
    key = { hdr.ipv4.dst_addr: lpm; }
    actions = { set_nexthop; NoAction; }
    size = 8192;
  }
  table ipv6_lpm {
    key = { hdr.ipv6.dst_addr: lpm; }
    actions = { set_nexthop; NoAction; }
    size = 8192;
  }
  table nexthop {
    key = { meta.nexthop: exact; }
    actions = { set_nh_bd_dmac; NoAction; }
    size = 1024;
  }
)p4";

constexpr const char kP4Egress[] = R"p4(
control MainEgress(inout headers_t hdr, inout metadata_t meta) {
  action rewrite_v4(bit<48> smac) {
    hdr.ethernet.src_addr = smac;
    hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
    update_checksum(hdr.ipv4, hdr_checksum);
  }
  action rewrite_v6(bit<48> smac) {
    hdr.ethernet.src_addr = smac;
    hdr.ipv6.hop_limit = hdr.ipv6.hop_limit - 1;
  }
  action set_port(bit<9> port) { forward(port); }

  table l2_l3_rewrite {
    key = { meta.bd: exact; }
    actions = { rewrite_v4; NoAction; }
    size = 256;
  }
  table l2_l3_rewrite_v6 {
    key = { meta.bd: exact; }
    actions = { rewrite_v6; NoAction; }
    size = 256;
  }
  table dmac {
    key = { meta.bd: exact; hdr.ethernet.dst_addr: exact; }
    actions = { set_port; NoAction; }
    size = 4096;
  }

  apply {
    if (meta.l3 == 1) {
      if (hdr.ipv4.isValid()) { l2_l3_rewrite.apply(); }
      else if (hdr.ipv6.isValid()) { l2_l3_rewrite_v6.apply(); }
    }
    dmac.apply();
  }
}
)p4";

std::string BuildP4(const std::string& headers_struct,
                    const std::string& parser,
                    const std::string& extra_ingress_decls,
                    const std::string& ingress_apply) {
  std::string out = kP4Prologue;
  out += headers_struct;
  out += parser;
  out += "control MainIngress(inout headers_t hdr, inout metadata_t meta) "
         "{\n";
  out += kP4IngressDecls;
  out += extra_ingress_decls;
  out += "  apply {\n";
  out += ingress_apply;
  out += "  }\n}\n";
  out += kP4Egress;
  return out;
}

constexpr const char kBaseIngressApply[] = R"p4(
    port_map.apply();
    bridge_vrf.apply();
    l2_l3.apply();
    if (meta.l3 == 1) {
      if (hdr.ipv4.isValid()) { ipv4_host.apply(); }
      else if (hdr.ipv6.isValid()) { ipv6_host.apply(); }
      if (hdr.ipv4.isValid()) { ipv4_lpm.apply(); }
      else if (hdr.ipv6.isValid()) { ipv6_lpm.apply(); }
      nexthop.apply();
    }
)p4";

}  // namespace

const std::string& BaseP4() {
  static const std::string kSource =
      BuildP4(kP4HeadersStructBase, kP4ParserBase, "", kBaseIngressApply);
  return kSource;
}

// --- C1: ECMP ---------------------------------------------------------------

const std::string& EcmpRp4Snippet() {
  // The rP4 of Fig. 5(a): two hash (selector) tables and one stage hosting
  // both, replacing the nexthop stage (H -> K,L in Fig. 4).
  static const std::string kSource = R"rp4(
table ecmp_ipv4 {
  key = {
    meta.nexthop: hash;
    ipv4.dst_addr: hash;  // similar with P4's selector
  }
  size = 4096;
}
table ecmp_ipv6 {
  key = {
    meta.nexthop: hash;
    ipv6.dst_addr: hash;
  }
  size = 4096;
}
// set egress bridge and dmac
action set_bd_dmac(bit<16> bd, bit<48> dmac) {
  meta.bd = bd;
  ethernet.dst_addr = dmac;
}
// parse ipv4 or ipv6, match table
stage ecmp { /*** parser-matcher-executor ***/
  parser { ipv4; ipv6; }
  matcher {
    if (ipv4.isValid()) ecmp_ipv4.apply();
    else if (ipv6.isValid()) ecmp_ipv6.apply();
    else;
  }
  executor {
    1: set_bd_dmac;
    default: NoAction;
  }
}
)rp4";
  return kSource;
}

const std::string& EcmpScript() {
  static const std::string kSource = R"(
load ecmp.rp4 --func_name ecmp
add_link ipv4_lpm ecmp
del_link ipv4_lpm nexthop
add_link ecmp l2_l3_rewrite
del_link nexthop l2_l3_rewrite
)";
  return kSource;
}

const std::string& BasePlusEcmpP4() {
  static const std::string kEcmpDecls = R"p4(
  action set_bd_dmac(bit<16> bd, bit<48> dmac) {
    meta.bd = bd;
    hdr.ethernet.dst_addr = dmac;
  }
  table ecmp_ipv4 {
    key = { meta.nexthop: hash; hdr.ipv4.dst_addr: hash; }
    actions = { set_bd_dmac; NoAction; }
    size = 4096;
  }
  table ecmp_ipv6 {
    key = { meta.nexthop: hash; hdr.ipv6.dst_addr: hash; }
    actions = { set_bd_dmac; NoAction; }
    size = 4096;
  }
)p4";
  static const std::string kApply = R"p4(
    port_map.apply();
    bridge_vrf.apply();
    l2_l3.apply();
    if (meta.l3 == 1) {
      if (hdr.ipv4.isValid()) { ipv4_host.apply(); }
      else if (hdr.ipv6.isValid()) { ipv6_host.apply(); }
      if (hdr.ipv4.isValid()) { ipv4_lpm.apply(); }
      else if (hdr.ipv6.isValid()) { ipv6_lpm.apply(); }
      if (hdr.ipv4.isValid()) { ecmp_ipv4.apply(); }
      else if (hdr.ipv6.isValid()) { ecmp_ipv6.apply(); }
    }
)p4";
  static const std::string kSource =
      BuildP4(kP4HeadersStructBase, kP4ParserBase, kEcmpDecls, kApply);
  return kSource;
}

const std::string& EcmpRemoveScript() {
  // Offloading restores the nexthop stage's links; the controller reloads
  // the nexthop stage via the base design (function removal flow).
  static const std::string kSource = R"(
remove --func_name ecmp
)";
  return kSource;
}

// --- C2: SRv6 ----------------------------------------------------------------

const std::string& Srv6Rp4Snippet() {
  // New protocol header (SRH), two tables (local_sid for SR endpoints,
  // end_transit for transit nodes), one stage after the L2/L3 decision.
  static const std::string kSource = R"rp4(
header srh {
  bit<8> next_hdr;
  bit<8> hdr_ext_len;
  bit<8> routing_type;
  bit<8> segments_left;
  bit<8> last_entry;
  bit<8> flags;
  bit<16> tag;
  varsize(hdr_ext_len, 1, 8);
  implicit parser(next_hdr) { }
}
table local_sid {
  key = { ipv6.dst_addr: exact; }
  size = 1024;
}
table end_transit {
  key = { ipv6.dst_addr: lpm; }
  size = 1024;
}
// SRH "End" behaviour (RFC 8754): SL -= 1; dst = SegmentList[SL].
action srv6_end() {
  srh.segments_left = srh.segments_left - 1;
  ipv6.dst_addr = get_raw(srh, 64 + (srh.segments_left << 7), 128);
}
action srv6_transit(bit<16> nexthop) {
  meta.nexthop = nexthop;
}
stage srv6 {
  parser { ipv6; srh; }
  matcher {
    if (srh.isValid() && srh.segments_left > 0) local_sid.apply();
    else if (ipv6.isValid()) end_transit.apply();
    else;
  }
  executor {
    1: srv6_end;
    2: srv6_transit;
    default: NoAction;
  }
}
)rp4";
  return kSource;
}

const std::string& Srv6Script() {
  // Fig. 5(c): load the function, splice the stage after the L2/L3
  // decision, and link the new header into the parse graph. The linkage
  // between routable headers is preserved so plain L3 still works.
  static const std::string kSource = R"(
load srv6.rp4 --func_name srv6
del_link l2_l3 ipv4_host
add_link l2_l3 srv6
add_link srv6 ipv4_host
link_header --pre ipv6 --next srh --tag 43
link_header --pre srh --next ipv6 --tag 41   // inner IPv6
link_header --pre srh --next ipv4 --tag 4    // inner IPv4
)";
  return kSource;
}

const std::string& BasePlusSrv6P4() {
  static const std::string kHeadersStruct = R"p4(
struct headers_t {
  ethernet_t ethernet;
  ipv4_t ipv4;
  ipv6_t ipv6;
  srh_t srh;
  tcp_t tcp;
  udp_t udp;
}
)p4";
  static const std::string kSrhHeader = R"p4(
header srh_t {
  bit<8> next_hdr;
  bit<8> hdr_ext_len;
  bit<8> routing_type;
  bit<8> segments_left;
  bit<8> last_entry;
  bit<8> flags;
  bit<16> tag;
  varsize(hdr_ext_len, 1, 8);
}
)p4";
  static const std::string kParser = R"p4(
parser MainParser(packet_in pkt, out headers_t hdr, inout metadata_t meta) {
  state start {
    pkt.extract(hdr.ethernet);
    transition select(hdr.ethernet.ether_type) {
      0x0800: parse_ipv4;
      0x86DD: parse_ipv6;
      default: accept;
    }
  }
  state parse_ipv4 {
    pkt.extract(hdr.ipv4);
    transition select(hdr.ipv4.protocol) {
      6: parse_tcp;
      17: parse_udp;
      default: accept;
    }
  }
  state parse_ipv6 {
    pkt.extract(hdr.ipv6);
    transition select(hdr.ipv6.next_hdr) {
      43: parse_srh;
      6: parse_tcp;
      17: parse_udp;
      default: accept;
    }
  }
  state parse_srh { pkt.extract(hdr.srh); transition accept; }
  state parse_tcp { pkt.extract(hdr.tcp); transition accept; }
  state parse_udp { pkt.extract(hdr.udp); transition accept; }
}
)p4";
  static const std::string kSrv6Decls = R"p4(
  action srv6_end() {
    hdr.srh.segments_left = hdr.srh.segments_left - 1;
    hdr.ipv6.dst_addr = get_raw(hdr.srh, 64 + (hdr.srh.segments_left << 7), 128);
  }
  action srv6_transit(bit<16> nexthop) { meta.nexthop = nexthop; }
  table local_sid {
    key = { hdr.ipv6.dst_addr: exact; }
    actions = { srv6_end; NoAction; }
    size = 1024;
  }
  table end_transit {
    key = { hdr.ipv6.dst_addr: lpm; }
    actions = { srv6_transit; NoAction; }
    size = 1024;
  }
)p4";
  static const std::string kApply = R"p4(
    port_map.apply();
    bridge_vrf.apply();
    l2_l3.apply();
    if (hdr.srh.isValid()) { local_sid.apply(); }
    else if (hdr.ipv6.isValid()) { end_transit.apply(); }
    if (meta.l3 == 1) {
      if (hdr.ipv4.isValid()) { ipv4_host.apply(); }
      else if (hdr.ipv6.isValid()) { ipv6_host.apply(); }
      if (hdr.ipv4.isValid()) { ipv4_lpm.apply(); }
      else if (hdr.ipv6.isValid()) { ipv6_lpm.apply(); }
      nexthop.apply();
    }
)p4";
  static const std::string kSource =
      BuildP4(kSrhHeader + kHeadersStruct, kParser, kSrv6Decls, kApply);
  return kSource;
}

// --- C3: flow probe -----------------------------------------------------------

const std::string& ProbeRp4Snippet() {
  static const std::string kSource = R"rp4(
register<bit<64>> probe_cnt[1024];
table flow_probe {
  key = {
    ipv4.src_addr: exact;
    ipv4.dst_addr: exact;
  }
  size = 1024;
}
// Count packets of the flow; mark once the threshold is exceeded so the
// controller can apply ACL/QoS to it.
action probe_count(bit<16> idx, bit<32> threshold) {
  probe_cnt[idx] = probe_cnt[idx] + 1;
  if (probe_cnt[idx] > threshold) {
    mark();
  }
}
stage flow_probe {
  parser { ipv4; }
  matcher {
    if (ipv4.isValid()) flow_probe.apply();
    else;
  }
  executor {
    1: probe_count;
    default: NoAction;
  }
}
)rp4";
  return kSource;
}

const std::string& ProbeScript() {
  static const std::string kSource = R"(
load probe.rp4 --func_name probe
add_link ipv4_lpm flow_probe
add_link flow_probe nexthop
del_link ipv4_lpm nexthop
)";
  return kSource;
}

const std::string& ProbeV2Rp4Snippet() {
  // Identical structure to ProbeRp4Snippet — same stage name, table shape,
  // and register — but the executor logic escalates to dropping.
  static const std::string kSource = R"rp4(
register<bit<64>> probe_cnt[1024];
table flow_probe {
  key = {
    ipv4.src_addr: exact;
    ipv4.dst_addr: exact;
  }
  size = 1024;
}
action probe_count(bit<16> idx, bit<32> threshold) {
  probe_cnt[idx] = probe_cnt[idx] + 1;
  if (probe_cnt[idx] > threshold) {
    drop();
  }
}
stage flow_probe {
  parser { ipv4; }
  matcher {
    if (ipv4.isValid()) flow_probe.apply();
    else;
  }
  executor {
    1: probe_count;
    default: NoAction;
  }
}
)rp4";
  return kSource;
}

const std::string& ProbeUpdateScript() {
  static const std::string kSource = R"(
update probe_v2.rp4 --func_name probe
)";
  return kSource;
}

const std::string& ProbeRemoveScript() {
  static const std::string kSource = R"(
remove --func_name probe
)";
  return kSource;
}

const std::string& BasePlusProbeP4() {
  static const std::string kProbeDecls = R"p4(
  action probe_count(bit<16> idx, bit<32> threshold) {
    probe_cnt[idx] = probe_cnt[idx] + 1;
    if (probe_cnt[idx] > threshold) {
      mark();
    }
  }
  table flow_probe {
    key = { hdr.ipv4.src_addr: exact; hdr.ipv4.dst_addr: exact; }
    actions = { probe_count; NoAction; }
    size = 1024;
  }
)p4";
  static const std::string kApply = R"p4(
    port_map.apply();
    bridge_vrf.apply();
    l2_l3.apply();
    if (meta.l3 == 1) {
      if (hdr.ipv4.isValid()) { ipv4_host.apply(); }
      else if (hdr.ipv6.isValid()) { ipv6_host.apply(); }
      if (hdr.ipv4.isValid()) { ipv4_lpm.apply(); }
      else if (hdr.ipv6.isValid()) { ipv6_lpm.apply(); }
      if (hdr.ipv4.isValid()) { flow_probe.apply(); }
      nexthop.apply();
    }
)p4";
  static const std::string kSource = BuildP4(
      std::string("register<bit<64>> probe_cnt[1024];\n") +
          kP4HeadersStructBase,
      kP4ParserBase, kProbeDecls, kApply);
  return kSource;
}

const std::string& TelemetryRp4Snippet() {
  // EtherType 0x88B5 is the IEEE "local experimental" value. The pushed
  // header preserves the original EtherType in next_type so a downstream
  // collector can decapsulate.
  static const std::string kSource = R"rp4(
header tlm {
  bit<16> next_type;
  bit<16> ingress_port;
  bit<32> hop_count;
  implicit parser(next_type) { }
}
register<bit<64>> tlm_seq[1];
table tlm_filter {
  key = { ipv4.dst_addr: lpm; }
  size = 256;
}
action tlm_push() {
  push_header(tlm, ethernet);
  tlm.next_type = ethernet.ether_type;
  tlm.ingress_port = meta.ingress_port;
  tlm_seq[0] = tlm_seq[0] + 1;
  tlm.hop_count = tlm_seq[0];
  ethernet.ether_type = 0x88B5;
}
stage telemetry {
  parser { ipv4; }
  matcher {
    if (ipv4.isValid()) tlm_filter.apply();
    else;
  }
  executor {
    1: tlm_push;
    default: NoAction;
  }
}
)rp4";
  return kSource;
}

const std::string& TelemetryScript() {
  // Runs at egress, after the L3 rewrite and before the DMAC lookup.
  static const std::string kSource = R"(
load telemetry.rp4 --func_name telemetry
add_link l2_l3_rewrite telemetry
add_link telemetry dmac
del_link l2_l3_rewrite dmac
)";
  return kSource;
}

const std::string& TelemetryRemoveScript() {
  static const std::string kSource = R"(
remove --func_name telemetry
)";
  return kSource;
}

// --- fabric: leaf uplink ECMP + rolling-upgrade ACL --------------------------

const std::string& FabricEcmpRp4Snippet() {
  // Leaf-switch uplink selector (see src/fabric/leaf_spine.cc). Hashing
  // src+dst (not meta.nexthop) pins one spine per flow regardless of which
  // FIB entry produced the nexthop, so withdrawing a spine's buckets moves
  // only the flows that hashed onto it.
  static const std::string kSource = R"rp4(
table fab_ecmp_v4 {
  key = {
    ipv4.src_addr: hash;
    ipv4.dst_addr: hash;
  }
  size = 4096;
}
action fab_set_spine(bit<16> bd, bit<48> dmac) {
  meta.bd = bd;
  ethernet.dst_addr = dmac;
}
stage fab_ecmp {
  parser { ipv4; }
  matcher {
    if (ipv4.isValid()) fab_ecmp_v4.apply();
    else;
  }
  executor {
    1: fab_set_spine;
    default: NoAction;
  }
}
)rp4";
  return kSource;
}

const std::string& FabricEcmpScript() {
  // Splice between the FIB and nexthop (keeping nexthop, unlike the stock
  // C1 script which replaces it): uplink flows miss nexthop and keep the
  // selector's spine choice; local flows hit it and get the host rewrite.
  // The two add_links are ordering constraints in the pipeline graph —
  // fab_ecmp lands after the v4 FIB and before nexthop.
  static const std::string kSource = R"(
load fab_ecmp.rp4 --func_name fab_ecmp
add_link ipv4_lpm fab_ecmp
add_link fab_ecmp nexthop
)";
  return kSource;
}

const std::string& FabricAclRp4Snippet() {
  static const std::string kSource = R"rp4(
table fab_acl_v4 {
  key = {
    ipv4.src_addr: exact;
  }
  size = 256;
}
action fab_deny() {
  drop();
}
stage fab_acl {
  parser { ipv4; }
  matcher {
    if (ipv4.isValid()) fab_acl_v4.apply();
    else;
  }
  executor {
    1: fab_deny;
    default: NoAction;
  }
}
)rp4";
  return kSource;
}

const std::string& FabricAclScript() {
  static const std::string kSource = R"(
load fab_acl.rp4 --func_name fab_acl
add_link l2_l3 fab_acl
del_link l2_l3 ipv4_host
add_link fab_acl ipv4_host
)";
  return kSource;
}

const std::string& FabricProbeRp4Snippet() {
  // Mark-on-miss: with the table empty every IPv4 packet takes the default
  // executor row and gets mark()ed, which telemetry counts per ingress port
  // as packets_marked. Forwarding metadata is untouched, so splicing or
  // removing the stage mid-traffic cannot change delivery — the fabric
  // conservation oracle and the shadow twins both hold across a toggle.
  static const std::string kSource = R"rp4(
table fab_probe_flows {
  key = { ipv4.src_addr: exact; ipv4.dst_addr: exact; }
  size = 512;
}
action fab_probe_mark() {
  mark();
}
stage fab_probe {
  parser { ipv4; }
  matcher {
    if (ipv4.isValid()) fab_probe_flows.apply();
    else;
  }
  executor {
    1: NoAction;
    default: fab_probe_mark;
  }
}
)rp4";
  return kSource;
}

const std::string& FabricProbeScript() {
  // Egress splice, same seam the telemetry stage uses: after the L3 rewrite,
  // before the DMAC lookup. Keeping it at egress means it composes with the
  // ingress splices (fab_ecmp, fab_acl) without touching their edges.
  static const std::string kSource = R"(
load fab_probe.rp4 --func_name fab_probe
add_link l2_l3_rewrite fab_probe
add_link fab_probe dmac
del_link l2_l3_rewrite dmac
)";
  return kSource;
}

const std::string& FabricProbeRemoveScript() {
  // remove bridges predecessors to successors, restoring
  // l2_l3_rewrite -> dmac.
  static const std::string kSource = R"(
remove --func_name fab_probe
)";
  return kSource;
}

// --- C5: in-network compute — allreduce --------------------------------------

namespace {

// Shared between v1 and v2 so the in-place update demonstrably keeps the
// aggregation semantics (and therefore the register state) intact. 256 slots;
// the slot index is masked so a hostile slot value cannot run off the
// register file. The worker bitmap register gives exactly-once accumulation
// under retransmits; `full` (the all-workers mask) arrives as action data so
// the controller picks the job size at entry-install time.
std::string AllreduceSnippetSource(bool v2) {
  std::string dup_track = v2 ? "    alr_dups[(alr.slot & 255)] = "
                               "(alr_dups[(alr.slot & 255)] + 1);\n"
                             : "";
  std::string regs = std::string("register<bit<64>> alr_val0[256];\n") +
                     "register<bit<64>> alr_val1[256];\n" +
                     "register<bit<64>> alr_seen[256];\n" +
                     (v2 ? "register<bit<64>> alr_dups[256];\n" : "");
  return regs + R"rp4(header alr {
  bit<16> op;
  bit<16> slot;
  bit<16> worker;
  bit<16> shift;
  bit<32> tag_magic;
  bit<32> tag_flow;
  bit<32> tag_seq;
  bit<64> v0;
  bit<64> v1;
  implicit parser(op) { }
}
table alr_ctl {
  key = { alr.op: exact; }
  size = 4;
}
action alr_contribute(bit<64> full) {
  if ((((alr_seen[(alr.slot & 255)] >> alr.worker) & 1) == 1)) {
)rp4" + dup_track +
         R"rp4(    if ((alr_seen[(alr.slot & 255)] == full)) {
      alr.op = 2;
      alr.v0 = fxp_dequantize(alr_val0[(alr.slot & 255)], alr.shift);
      alr.v1 = fxp_dequantize(alr_val1[(alr.slot & 255)], alr.shift);
    } else {
      drop();
    }
  } else {
    alr_val0[(alr.slot & 255)] = sat_add(alr_val0[(alr.slot & 255)], fxp_quantize(alr.v0, alr.shift));
    alr_val1[(alr.slot & 255)] = sat_add(alr_val1[(alr.slot & 255)], fxp_quantize(alr.v1, alr.shift));
    alr_seen[(alr.slot & 255)] = (alr_seen[(alr.slot & 255)] | (1 << alr.worker));
    if ((alr_seen[(alr.slot & 255)] == full)) {
      alr.op = 2;
      alr.v0 = fxp_dequantize(alr_val0[(alr.slot & 255)], alr.shift);
      alr.v1 = fxp_dequantize(alr_val1[(alr.slot & 255)], alr.shift);
    } else {
      drop();
    }
  }
}
stage alr_agg {
  parser { ipv4; alr; }
  matcher {
    if (alr.isValid() && alr.op == 1) alr_ctl.apply();
    else;
  }
  executor {
    1: alr_contribute;
    default: NoAction;
  }
}
)rp4";
}

}  // namespace

const std::string& AllreduceRp4Snippet() {
  static const std::string kSource = AllreduceSnippetSource(/*v2=*/false);
  return kSource;
}

const std::string& AllreduceV2Rp4Snippet() {
  static const std::string kSource = AllreduceSnippetSource(/*v2=*/true);
  return kSource;
}

const std::string& FabricAllreduceScript() {
  // Contributions are routed packets (dst = collector), so the stage sits
  // on the routed path. On a leaf the fab_ecmp selector already owns the
  // ipv4_lpm -> nexthop edge; aggregation splices after it. Local-destined
  // results still work: the nexthop stage overwrites fab_set_spine's choice
  // for local routes. The new header hangs off IPv4 protocol 153
  // (experimentation, RFC 3692).
  static const std::string kSource = R"(
load alr.rp4 --func_name alr
link_header --pre ipv4 --next alr --tag 153
add_link fab_ecmp alr_agg
add_link alr_agg nexthop
del_link fab_ecmp nexthop
)";
  return kSource;
}

const std::string& AllreduceUpdateScript() {
  static const std::string kSource = R"(
update alr_v2.rp4 --func_name alr
)";
  return kSource;
}

Result<std::string> ResolveSnippet(const std::string& file) {
  if (file == "ecmp.rp4") return EcmpRp4Snippet();
  if (file == "fab_ecmp.rp4") return FabricEcmpRp4Snippet();
  if (file == "fab_acl.rp4") return FabricAclRp4Snippet();
  if (file == "fab_probe.rp4") return FabricProbeRp4Snippet();
  if (file == "srv6.rp4") return Srv6Rp4Snippet();
  if (file == "probe.rp4") return ProbeRp4Snippet();
  if (file == "probe_v2.rp4") return ProbeV2Rp4Snippet();
  if (file == "telemetry.rp4") return TelemetryRp4Snippet();
  if (file == "alr.rp4") return AllreduceRp4Snippet();
  if (file == "alr_v2.rp4") return AllreduceV2Rp4Snippet();
  return NotFound("unknown snippet file '" + file + "'");
}

}  // namespace ipsa::controller::designs
