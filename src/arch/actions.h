// The action VM: executor primitives interpreted per packet.
//
// rP4 action bodies (Fig. 5a: `action set_bd_dmac(bit<16> bd, bit<48> dmac)
// { meta.bd = bd; ethernet.dst_addr = dmac; }`) compile into ActionDefs —
// plain data, so loading a new action at runtime is a template write, never
// a recompile of the switch (paper §2.2: action primitives are template
// parameters of a TSP).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/expr.h"
#include "util/status.h"

namespace ipsa::arch {

struct ActionParam {
  std::string name;
  uint32_t width_bits = 0;
};

struct ActionOp {
  enum class Kind {
    kNoop,
    kAssign,      // dest = value
    kAssignRaw,   // instance.raw[offset +: width] = value
    kPushHeader,  // insert a header instance into the packet
    kPopHeader,   // remove a header instance from the packet
    kDrop,
    kMark,
    kForward,     // egress_spec = value
    kRegWrite,    // reg[index] = value
    kIf,          // conditional sub-programs
    kUpdateChecksum,  // recompute a header's internet checksum
  };

  Kind kind = Kind::kNoop;
  FieldRef dest;                  // kAssign
  std::string instance;           // kAssignRaw / kPushHeader / kPopHeader
  ExprPtr raw_offset;             // kAssignRaw
  uint32_t raw_width = 0;         // kAssignRaw
  ExprPtr value;                  // kAssign / kAssignRaw / kForward / kRegWrite
  std::string after_instance;     // kPushHeader: insert after this instance
  ExprPtr push_size_bytes;        // kPushHeader: size override (var headers)
  std::string reg;                // kRegWrite
  ExprPtr index;                  // kRegWrite
  ExprPtr cond;                   // kIf
  std::vector<ActionOp> then_ops;
  std::vector<ActionOp> else_ops;
  std::string checksum_field;     // kUpdateChecksum

  static ActionOp Noop() { return {}; }
  static ActionOp Assign(FieldRef dest, ExprPtr value);
  static ActionOp AssignRaw(std::string instance, ExprPtr offset,
                            uint32_t width, ExprPtr value);
  static ActionOp PushHeader(std::string type_name, std::string after,
                             ExprPtr size_bytes = nullptr);
  static ActionOp PopHeader(std::string instance);
  static ActionOp Drop();
  static ActionOp Mark();
  static ActionOp Forward(ExprPtr port);
  static ActionOp RegWrite(std::string reg, ExprPtr index, ExprPtr value);
  static ActionOp If(ExprPtr cond, std::vector<ActionOp> then_ops,
                     std::vector<ActionOp> else_ops = {});
  // Recomputes the RFC 1071 checksum over the whole header instance and
  // stores it into the instance's checksum field (named `checksum_field`,
  // defaulting to "hdr_checksum").
  static ActionOp UpdateChecksum(std::string instance,
                                 std::string checksum_field = "hdr_checksum");
};

struct ActionDef {
  std::string name;
  std::vector<ActionParam> params;
  std::vector<ActionOp> body;

  uint32_t ParamsWidthBits() const {
    uint32_t w = 0;
    for (const auto& p : params) w += p.width_bits;
    return w;
  }
};

// Runs the action body. `env.args` is set internally from `args_data`.
Status ExecuteAction(const ActionDef& action, const mem::BitString& args_data,
                     PacketContext& ctx, RegisterFile* regs);

// Runs a raw op list with an existing environment (used for kIf recursion
// and for stage-level miss programs).
Status ExecuteOps(const std::vector<ActionOp>& ops, const EvalEnv& env);

// The canonical no-op action (action_id 0 by convention).
const ActionDef& NoAction();

// True if any expression in the action body uses a fixed-point extern op
// (kSatAdd/kFxpQuantize/kFxpDequantize) — the hw model's unit of pricing
// for the extern ALU.
bool ActionUsesExternOps(const ActionDef& action);

}  // namespace ipsa::arch
