// Random well-typed program + workload generation for differential fuzzing.
//
// A case is (program, traffic, churn schedule). The program is generated
// once as a P4lite source *pair* — v2 differs from v1 only in one action's
// version constant — so the same case drives both design flows: the PISA
// controller full-reloads v2 while the rP4 controller applies an in-situ
// function update whose snippet is rendered from rp4fc's own output (zero
// drift from the linearizer's stage semantics).
//
// Generated programs deliberately stay inside the intersection of behaviors
// the two architectures define identically: no entry erases (the PISA
// shadow store has no erase), and register-using cases omit the update op
// (a PISA reload resets registers, an IPSA update keeps them — a real
// divergence of the models, not a bug). Stateful cases exercise the
// register-accumulate path — including the fixed-point externs sat_add /
// fxp_quantize / fxp_dequantize — across all five configurations; stateless
// cases may still use the externs in pure expressions, in which case the
// in-situ update snippet carries them through the rp4 printer/parser too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace ipsa::testing {

// --- program shape ----------------------------------------------------------

struct FieldSpec {
  std::string name;
  uint32_t width_bits = 16;
};

// A header instance (type = instance + "_t"). Every header ends with a
// bit<16> "sel" field; interior parse-tree nodes select on it. Field widths
// are byte multiples so packet bytes assemble without bit packing.
struct HeaderSpec {
  std::string instance;
  std::vector<FieldSpec> fields;  // includes the trailing "sel"
  int parent = -1;                // index of the parent header, -1 = entry
  uint64_t tag = 0;               // parent's select value for this header
};

struct ActionSpec {
  std::string name;
  std::vector<FieldSpec> params;
  std::vector<std::string> stmts;  // rendered P4 statements
  // The designated update action: rendering appends
  // `meta.ver = 1000 + version;` so v1/v2 differ in exactly this constant.
  bool versioned = false;
};

struct TableSpec {
  std::string name;
  int scope = -1;          // header index guarding this table, -1 = meta-only
  std::string match_kind;  // exact | lpm | ternary | hash
  std::vector<std::string> key_refs;  // P4 refs: "hdr.h0.f1" / "meta.m0"
  std::vector<uint32_t> key_widths;   // parallel to key_refs
  uint32_t size = 64;
  std::vector<ActionSpec> actions;  // owned by this table (plus NoAction)
};

// One statement of the apply block: a single (guarded) apply, or a
// two-branch if/else-if chain the linearizer must flatten into one stage.
struct ApplyBlock {
  std::vector<int> tables;  // indices into the control's tables; size 1 or 2
};

struct ControlSpec {
  std::vector<TableSpec> tables;
  std::vector<ApplyBlock> blocks;
};

// An array register (rendered as `register<bit<64>> name[size];`). Sizes are
// powers of two so generated index expressions can mask into range.
struct RegisterSpec {
  std::string name;
  uint32_t size = 8;
};

struct ProgramSpec {
  uint64_t seed = 0;
  std::vector<HeaderSpec> headers;
  std::vector<FieldSpec> metadata;  // user fields; "ver" is always present
  // Non-empty makes the case stateful: actions may accumulate into these,
  // and GenerateCase omits the update op (see the header comment).
  std::vector<RegisterSpec> registers;
  ControlSpec ingress;
  ControlSpec egress;
};

// --- workload ---------------------------------------------------------------

struct EntryOp {
  std::string table;
  std::string action;
  std::vector<uint64_t> keys;
  std::vector<uint64_t> args;
  std::vector<uint64_t> mask;  // ternary only, parallel to keys
  uint32_t prefix_len = 0;     // lpm only
  uint32_t priority = 0;       // ternary only
  int32_t bucket = -1;         // >= 0: selector member (keys unused)
};

struct PacketOp {
  uint32_t in_port = 0;
  std::vector<uint8_t> bytes;
};

struct Op {
  enum class Kind { kPacket, kEntry, kUpdate };
  Kind kind = Kind::kPacket;
  PacketOp packet;
  EntryOp entry;
};

// A case that can still be re-rendered (the shrinker edits the spec and
// regenerates sources; a CaseFile alone cannot grow back a dropped table).
struct GeneratedCase {
  ProgramSpec spec;
  std::vector<Op> ops;
};

// The self-contained, replayable repro: sources + churn schedule. This is
// what rp4fuzz writes on failure and what tests/corpus/ commits.
struct CaseFile {
  uint64_t seed = 0;
  std::string p4_v1;
  std::string p4_v2;    // empty when the case has no update op
  std::string snippet;  // rP4 update snippet (rendered from rp4fc on v2)
  std::string script;   // controller script applying the snippet
  std::vector<Op> ops;
};

// --- entry points -----------------------------------------------------------

// Deterministically generates a case from a seed (same seed, same case).
GeneratedCase GenerateCase(uint64_t seed);

// Renders the P4lite source of `spec` at `version` (1 or 2).
std::string RenderP4(const ProgramSpec& spec, uint32_t version);

// Renders the full case: both sources plus, when an update op is present,
// the in-situ snippet/script pair derived by running p4lite + rp4fc on v2
// in-process and pretty-printing the changed pieces. Fails if the generated
// program does not compile — that is a generator (or front-end) bug.
Result<CaseFile> RenderCase(const GeneratedCase& gen);

// Text round-trip for repro files.
std::string SerializeCase(const CaseFile& c);
Result<CaseFile> ParseCaseFile(std::string_view text);

}  // namespace ipsa::testing
