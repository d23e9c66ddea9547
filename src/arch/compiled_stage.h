// Compiled fast path for StagePrograms.
//
// A StageProgram is pure data: every table, action, header field and
// metadata field is referenced by name, and the interpreter (RunStage)
// resolves those names per packet. CompileStage resolves them ONCE — at
// template-write / design-load time, mirroring how a real TSP's template
// download binds table pointers and action primitives into hardware — so the
// per-packet path does no string hashing and no map lookups:
//
//   * table names        -> table::MatchTable* + a key-extraction plan
//   * action names       -> const ActionDef* + a compiled op list
//   * metadata fields    -> interned slot indices (Metadata::SlotOf)
//   * header instances   -> HeaderIds (HeaderRegistry), parse sets included
//   * header fields      -> (instance id, bit offset, width) triples
//   * action parameters  -> bit ranges within the entry's action_data
//
//   * narrow expressions -> flat post-order programs over a uint64_t stack
//
// RunCompiledStage charges exactly the cycles RunStage charges and produces
// bit-identical results; the fastpath regression tests assert this.
//
// Compiled state dangles when the device mutates (a table destroyed, an
// action replaced, a header relinked): the owning switch tracks a config
// epoch, bumps it on every CCM mutation, and lazily recompiles before the
// next packet. CompileStage fails cleanly when a reference cannot be
// resolved; the caller then falls back to the interpreter for that stage.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/catalog.h"
#include "arch/stage.h"
#include "table/table.h"

namespace ipsa::arch {

// A FieldRef resolved to its physical location. The header instance is
// found by id in the PHV (an integer scan over the few parsed headers — the
// instance's byte offset is per-packet state); the field's bit range within
// the header is fixed here.
struct CompiledField {
  bool is_meta = false;
  int meta_slot = -1;              // metadata slot (is_meta)
  HeaderId instance = kNoHeader;   // header instance (!is_meta)
  uint32_t offset_bits = 0;        // bit offset within the header (!is_meta)
  uint32_t width_bits = 0;
};

// One instruction of a flat expression program. A narrow expression tree
// is lowered, post-order, into a vector of these; one loop runs it over a
// fixed-size uint64_t stack (kFlatStackDepth values), so evaluating it
// neither recurses nor allocates. `width` is the static width of the value
// the instruction leaves on the stack; every value is masked to it.
struct FlatInsn {
  enum class Code : uint8_t {
    kConst,     // push imm
    kMeta,      // push metadata slot `arg`
    kWire,      // push header field: `instance`, bit offset `arg`
    kRaw,       // pop a bit offset, push a raw read of `instance`
    kParam,     // push action-data bits [arg, arg + width)
    kNeedRegs,  // fail unless a register file is bound (precedes the index)
    kRegister,  // pop an index, push register array `*reg` at it
    kIsValid,   // push whether `instance` is valid
    kUnary,     // `op` on the top value
    kAndJump,   // top == 0: keep it and jump to `arg`; else pop
    kOrJump,    // top != 0: replace it with 1 and jump to `arg`; else pop
    kTruthy,    // top = (top != 0)
    kBinary,    // pop b, then a op b replaces a
  };
  Code code = Code::kConst;
  Expr::Op op = Expr::Op::kNone;
  uint32_t width = 0;
  uint32_t arg = 0;
  HeaderId instance = kNoHeader;
  uint64_t imm = 0;
  const std::string* reg = nullptr;  // the tree node's register name
};

inline constexpr uint32_t kFlatStackDepth = 16;

struct CompiledExpr;
using CompiledExprPtr = std::unique_ptr<CompiledExpr>;

// An Expr with every name reference resolved. Same node kinds and operator
// semantics as Expr (the operator kernels are shared, see expr.h).
struct CompiledExpr {
  Expr::Kind kind = Expr::Kind::kConst;
  Expr::Op op = Expr::Op::kNone;
  mem::BitString constant;    // kConst
  CompiledField field;        // kField
  HeaderId instance = kNoHeader;  // kRaw / kIsValid
  std::string reg;            // kRegister array
  uint32_t raw_width = 0;     // kRaw
  uint32_t param_offset = 0;  // kParam: bit range within action_data
  uint32_t param_width = 0;
  CompiledExprPtr lhs;        // kRaw offset / kRegister index / operands
  CompiledExprPtr rhs;
  // True when some node in this subtree can produce a value wider than 64
  // bits, which forces the BitString evaluator (EvalCompiled) over the
  // tree. Set once at compile time. Narrow roots (the common case: every
  // field, constant and parameter in the example designs) carry `program`,
  // their flat lowering, and are evaluated through it alone; their tree
  // stays only as the BitString evaluator's input where an op needs a
  // BitString value (a raw write, a wide destination).
  bool wide = false;
  std::vector<FlatInsn> program;  // narrow roots only
};

// An ActionOp with destinations and operands resolved.
struct CompiledOp {
  ActionOp::Kind kind = ActionOp::Kind::kNoop;
  CompiledField dest;            // kAssign / kDrop / kMark / kForward /
                                 // kUpdateChecksum (the written field)
  HeaderId instance = kNoHeader;  // kAssignRaw/kPush/kPop/kUpdateChecksum
  HeaderId after_instance = kNoHeader;  // kPushHeader (kNoHeader: front)
  const HeaderTypeDef* push_def = nullptr;  // kPushHeader: the pushed type
  std::string reg;               // kRegWrite
  uint32_t raw_width = 0;        // kAssignRaw
  CompiledExprPtr value;         // kAssign/kAssignRaw/kForward/kRegWrite
  CompiledExprPtr offset;        // kAssignRaw
  CompiledExprPtr index;         // kRegWrite
  CompiledExprPtr cond;          // kIf
  CompiledExprPtr push_size;     // kPushHeader size override
  std::vector<CompiledOp> then_ops;
  std::vector<CompiledOp> else_ops;
};

struct CompiledAction {
  const ActionDef* def = nullptr;  // stats/trace names
  std::vector<CompiledOp> body;
};

// One slice of a rule's fused key-extraction plan. Key fields concatenate
// low-bits-first (like TableCatalog::BuildKey); a segment copies one
// contiguous run of wire (or metadata) bits into key bits
// [dest_bits, dest_bits + width_bits). Header instances are deduplicated
// into CompiledRule::key_instances so a lookup resolves each instance in
// the PHV exactly once, no matter how many fields it contributes, and
// wire-contiguous fields of one instance collapse into a single segment.
struct KeySegment {
  bool is_meta = false;
  int meta_slot = -1;         // metadata slot (is_meta)
  uint32_t instance = 0;      // index into key_instances (!is_meta)
  uint32_t offset_bits = 0;   // bit offset within the header (!is_meta)
  uint32_t width_bits = 0;
  uint32_t dest_bits = 0;     // low-bit position within the key
};

struct CompiledRule {
  CompiledExprPtr guard;           // null = unconditional
  bool has_table = false;          // false = explicit "no table" branch
  table::MatchTable* table = nullptr;
  std::vector<HeaderId> key_instances;  // unique instances, first-use order
  std::vector<KeySegment> key;     // fused extraction plan
  uint32_t key_width_bits = 0;
};

struct CompiledStage {
  const StageProgram* source = nullptr;  // trace names
  std::vector<HeaderId> parse_ids;       // source->parse_set, resolved
  std::vector<CompiledRule> rules;
  std::vector<uint32_t> branch_tags;           // sorted ascending
  std::vector<CompiledAction> branch_actions;  // parallel to branch_tags
  CompiledAction miss;
  // True when any guard or reachable action body touches the register file;
  // the parallel executor serialises such pipelines to stay deterministic.
  bool uses_registers = false;
};

// Resolves `stage` against the device stores. `stage` must outlive the
// result (the compiled stage keeps pointers into it). Fails when any
// referenced table/action/header/metadata field cannot be resolved; the
// caller should then fall back to RunStage for this stage.
Result<CompiledStage> CompileStage(const StageProgram& stage,
                                   const TableCatalog& catalog,
                                   const ActionStore& actions,
                                   const HeaderRegistry& registry,
                                   const Metadata& metadata_proto);

// Executes a compiled stage. Semantics and cycle accounting are identical
// to RunStage on the source program. `fill_names` controls whether the
// stats' applied_table / executed_action views are set (only tracing reads
// them).
Result<StageRunStats> RunCompiledStage(const CompiledStage& stage,
                                       PacketContext& ctx, RegisterFile* regs,
                                       bool jit_parse, bool fill_names);

// Conservative register-usage scan of an uncompiled program (used when
// compilation fails and the interpreter fallback must still be classified
// for the parallel executor). Actions missing from the store count as using
// registers.
bool StageMayUseRegisters(const StageProgram& stage, const ActionStore& actions);

// Debug-only fault injection for the differential fuzzing harness
// (tools/rp4fuzz --inject-fault): while enabled, CompileStage perturbs the
// first assignment/forward it compiles (+1 on the written value), so compiled
// configurations diverge from the interpreter on purpose. Proves the harness
// actually detects, shrinks and replays a real divergence. Never enable
// outside tests.
void SetCompiledStageFault(bool enabled);
bool CompiledStageFaultEnabled();

}  // namespace ipsa::arch
