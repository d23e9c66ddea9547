// The paper's tested designs (§4.2), as in-memory sources.
//
// Base design: the L2/L3 switch of Fig. 4 — port mapping (A), bridge/VRF
// binding (B), L2-vs-L3 decision (C), IPv4/IPv6 host+LPM FIB (D-G), nexthop
// (H), L2/L3 rewrite + SMAC (I), and egress DMAC lookup (J).
//
// For each use case there are TWO artifacts, matching the two design flows
// of Table 1:
//  * a complete P4 program (base + the function) — the PISA flow recompiles
//    and reloads this whole thing;
//  * an rP4 snippet + controller script (Fig. 5) — the rP4 flow compiles
//    only the increment.
#pragma once

#include <string>

#include "util/status.h"

namespace ipsa::controller::designs {

// --- base design -----------------------------------------------------------
const std::string& BaseP4();

// --- C1: ECMP (Fig. 5a/5b) --------------------------------------------------
const std::string& EcmpRp4Snippet();
const std::string& EcmpScript();
const std::string& BasePlusEcmpP4();  // full program for the PISA flow

// --- C2: SRv6 (Fig. 5c) ------------------------------------------------------
const std::string& Srv6Rp4Snippet();
const std::string& Srv6Script();
const std::string& BasePlusSrv6P4();

// --- C3: event-triggered flow probe ------------------------------------------
const std::string& ProbeRp4Snippet();
const std::string& ProbeScript();
const std::string& BasePlusProbeP4();

// In-place function update (§4.2 mentions update flows): probe v2 keeps the
// same stage/tables/register but escalates from marking to dropping once
// the threshold is exceeded. Counters survive the update.
const std::string& ProbeV2Rp4Snippet();
const std::string& ProbeUpdateScript();

// --- C4 (extension): INT-lite in-band telemetry --------------------------------
// Not in the paper's evaluation, but squarely its motivation #1 ("dynamic
// network visibility"): a runtime-loaded function that encapsulates matching
// flows with a new telemetry header (ingress port + hop sequence number)
// pushed after Ethernet, retagging the EtherType. Exercises push_header with
// a header type that did not exist at design time.
const std::string& TelemetryRp4Snippet();
const std::string& TelemetryScript();
const std::string& TelemetryRemoveScript();

// Removal scripts (the paper mentions removal/update flows; §4.2 end).
const std::string& EcmpRemoveScript();
const std::string& ProbeRemoveScript();

// --- fabric: multi-switch leaf–spine composition (src/fabric) ----------------
// Leaf uplink ECMP: a selector stage spliced between ipv4_lpm and nexthop.
// The selector picks an egress bridge + spine router MAC for *every* IPv4
// packet by hashing (src, dst); the downstream nexthop stage then overwrites
// that choice on a hit (local hosts install real nexthop ids) and leaves it
// standing on a miss (remote prefixes route to the reserved uplink nexthop
// id, which has no nexthop entry on purpose). This keeps the splice free of
// any new matcher syntax while giving leaves "local routes beat ECMP".
const std::string& FabricEcmpRp4Snippet();
const std::string& FabricEcmpScript();

// Fabric-wide rolling-upgrade payload: a source-address ACL stage spliced
// between the L2/L3 decision and the IPv4 FIB. Ships with an empty table, so
// installing it mid-traffic must not change forwarding — the rolling upgrade
// orchestrator asserts exactly that, switch by switch.
const std::string& FabricAclRp4Snippet();
const std::string& FabricAclScript();

// On-demand heavy-hitter probe: a stage spliced at egress (between the L3
// rewrite and the DMAC lookup) whose table starts empty and whose *miss*
// action marks the packet, so while the stage is resident every IPv4 packet
// shows up in packets_marked without changing forwarding. Entries can later
// pin known-heavy flows to NoAction to narrow the probe. The reactor toggles
// this stage in-situ on demand (docs/reactor.md).
const std::string& FabricProbeRp4Snippet();
const std::string& FabricProbeScript();
const std::string& FabricProbeRemoveScript();

// --- C5: in-network compute — SwitchML-style allreduce -----------------------
// A chunked aggregation stage (docs/compute.md): contributions arrive as
// IPv4 protocol-153 packets carrying an `alr` header (slot, worker id,
// fixed-point scale shift, two 64-bit values). Per-slot registers accumulate
// sat_add(acc, fxp_quantize(v, shift)); a per-slot worker bitmap register
// makes retransmitted contributions exactly-once. The contribution that
// completes a slot is rewritten into the result (op=2, dequantized
// aggregates) and forwarded on to the collector; non-final contributions
// drop at the device. A duplicate arriving after completion re-emits the
// result, so a lost result packet is repaired by any retransmit.
const std::string& AllreduceRp4Snippet();
// Splices alr_agg between fab_ecmp and nexthop on a leaf that carries the
// fab_ecmp selector stage (src/fabric/leaf_spine.cc).
const std::string& FabricAllreduceScript();
// In-place v2: identical aggregation semantics plus a duplicate-counting
// register — aggregation state survives the in-situ update.
const std::string& AllreduceV2Rp4Snippet();
const std::string& AllreduceUpdateScript();

// Resolves the snippet file names used inside the scripts
// (ecmp.rp4 / srv6.rp4 / probe.rp4 / alr.rp4 / ...).
Result<std::string> ResolveSnippet(const std::string& file);

}  // namespace ipsa::controller::designs
