#include "arch/compiled_stage.h"

#include <algorithm>

#include "arch/parse_engine.h"
#include "net/checksum.h"

namespace ipsa::arch {

namespace {

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

// Carries the resolution context through the recursive compile and records
// whether anything touched the register file.
struct Compiler {
  const TableCatalog* catalog;
  const ActionStore* actions;
  const HeaderRegistry* registry;
  const Metadata* metadata;
  bool uses_registers = false;

  Result<CompiledField> Field(const FieldRef& ref) const {
    CompiledField out;
    if (ref.space == FieldRef::Space::kMeta) {
      out.is_meta = true;
      out.meta_slot = metadata->SlotOf(ref.field);
      if (out.meta_slot == Metadata::kInvalidSlot) {
        return NotFound("metadata field '" + ref.field + "' not declared");
      }
      out.width_bits = metadata->WidthOf(ref.field);
      return out;
    }
    // Instance name == type name throughout (the parse engine and push ops
    // both create instances named after their type), so the instance's id
    // and the field's bit range can be fixed now. A registry mutation bumps
    // the config epoch and forces a recompile, so neither can go stale.
    out.is_meta = false;
    IPSA_ASSIGN_OR_RETURN(const HeaderTypeDef* type,
                          registry->Get(ref.instance));
    IPSA_ASSIGN_OR_RETURN(HeaderTypeDef::FieldSpan span,
                          type->FieldSpanOf(ref.field));
    out.instance = type->id();
    out.offset_bits = span.offset_bits;
    out.width_bits = span.width_bits;
    return out;
  }

  // An instance named by an op or raw access. It need not be registered
  // (the op then fails per packet, as in the interpreter), but the registry
  // must know the name so the error can spell it.
  Result<HeaderId> Instance(const std::string& name) const {
    HeaderId id = registry->IdOf(name);
    if (id == kNoHeader) {
      return NotFound("header instance '" + name + "' is unknown");
    }
    return id;
  }

  // `params` is the enclosing action's parameter list (null for guards).
  Result<CompiledExprPtr> Compile(const Expr& e, const ActionDef* action) {
    auto out = std::make_unique<CompiledExpr>();
    out->kind = e.kind();
    out->op = e.op();
    switch (e.kind()) {
      case Expr::Kind::kConst:
        out->constant = e.constant();
        out->wide = out->constant.bit_width() > 64;
        break;
      case Expr::Kind::kField: {
        IPSA_ASSIGN_OR_RETURN(out->field, Field(e.field()));
        out->wide = out->field.width_bits > 64;
        break;
      }
      case Expr::Kind::kRaw: {
        IPSA_ASSIGN_OR_RETURN(out->instance, Instance(e.name()));
        out->raw_width = e.raw_width();
        IPSA_ASSIGN_OR_RETURN(out->lhs, Compile(*e.lhs(), action));
        out->wide = out->raw_width > 64 || out->lhs->wide;
        break;
      }
      case Expr::Kind::kParam: {
        if (action == nullptr) {
          return FailedPrecondition("parameter reference outside an action");
        }
        uint32_t offset = 0;
        bool found = false;
        for (const ActionParam& p : action->params) {
          if (p.name == e.name()) {
            out->param_offset = offset;
            out->param_width = p.width_bits;
            found = true;
            break;
          }
          offset += p.width_bits;
        }
        if (!found) {
          return NotFound("action parameter '" + e.name() + "' not bound");
        }
        out->wide = out->param_width > 64;
        break;
      }
      case Expr::Kind::kRegister: {
        uses_registers = true;
        out->reg = e.name();
        IPSA_ASSIGN_OR_RETURN(out->lhs, Compile(*e.lhs(), action));
        out->wide = out->lhs->wide;
        break;
      }
      case Expr::Kind::kIsValid:
        // An unknown name is kNoHeader, which no PHV holds: never valid.
        out->instance = registry->IdOf(e.name());
        break;
      case Expr::Kind::kUnary: {
        IPSA_ASSIGN_OR_RETURN(out->lhs, Compile(*e.lhs(), action));
        out->wide = out->lhs->wide;
        break;
      }
      case Expr::Kind::kBinary: {
        IPSA_ASSIGN_OR_RETURN(out->lhs, Compile(*e.lhs(), action));
        IPSA_ASSIGN_OR_RETURN(out->rhs, Compile(*e.rhs(), action));
        out->wide = out->lhs->wide || out->rhs->wide;
        break;
      }
    }
    return out;
  }

  Result<std::vector<CompiledOp>> CompileOps(const std::vector<ActionOp>& ops,
                                             const ActionDef* action) {
    std::vector<CompiledOp> out;
    out.reserve(ops.size());
    for (const ActionOp& op : ops) {
      CompiledOp c;
      c.kind = op.kind;
      switch (op.kind) {
        case ActionOp::Kind::kNoop:
          break;
        case ActionOp::Kind::kAssign: {
          IPSA_ASSIGN_OR_RETURN(c.dest, Field(op.dest));
          IPSA_ASSIGN_OR_RETURN(c.value, Compile(*op.value, action));
          break;
        }
        case ActionOp::Kind::kAssignRaw: {
          IPSA_ASSIGN_OR_RETURN(c.instance, Instance(op.instance));
          c.raw_width = op.raw_width;
          IPSA_ASSIGN_OR_RETURN(c.offset, Compile(*op.raw_offset, action));
          IPSA_ASSIGN_OR_RETURN(c.value, Compile(*op.value, action));
          break;
        }
        case ActionOp::Kind::kPushHeader: {
          IPSA_ASSIGN_OR_RETURN(c.push_def, registry->Get(op.instance));
          c.instance = c.push_def->id();
          if (!op.after_instance.empty()) {
            IPSA_ASSIGN_OR_RETURN(c.after_instance,
                                  Instance(op.after_instance));
          }
          if (op.push_size_bytes != nullptr) {
            IPSA_ASSIGN_OR_RETURN(c.push_size,
                                  Compile(*op.push_size_bytes, action));
          }
          break;
        }
        case ActionOp::Kind::kPopHeader: {
          IPSA_ASSIGN_OR_RETURN(c.instance, Instance(op.instance));
          break;
        }
        case ActionOp::Kind::kDrop: {
          IPSA_ASSIGN_OR_RETURN(c.dest, Field(FieldRef::Meta("drop")));
          break;
        }
        case ActionOp::Kind::kMark: {
          IPSA_ASSIGN_OR_RETURN(c.dest, Field(FieldRef::Meta("mark")));
          break;
        }
        case ActionOp::Kind::kForward: {
          IPSA_ASSIGN_OR_RETURN(c.dest, Field(FieldRef::Meta("egress_spec")));
          IPSA_ASSIGN_OR_RETURN(c.value, Compile(*op.value, action));
          break;
        }
        case ActionOp::Kind::kRegWrite: {
          uses_registers = true;
          c.reg = op.reg;
          IPSA_ASSIGN_OR_RETURN(c.index, Compile(*op.index, action));
          IPSA_ASSIGN_OR_RETURN(c.value, Compile(*op.value, action));
          break;
        }
        case ActionOp::Kind::kIf: {
          IPSA_ASSIGN_OR_RETURN(c.cond, Compile(*op.cond, action));
          IPSA_ASSIGN_OR_RETURN(c.then_ops, CompileOps(op.then_ops, action));
          IPSA_ASSIGN_OR_RETURN(c.else_ops, CompileOps(op.else_ops, action));
          break;
        }
        case ActionOp::Kind::kUpdateChecksum: {
          IPSA_ASSIGN_OR_RETURN(
              c.dest, Field(FieldRef::Header(op.instance, op.checksum_field)));
          c.instance = c.dest.instance;
          break;
        }
      }
      out.push_back(std::move(c));
    }
    return out;
  }

  Result<CompiledAction> Action(std::string_view name) {
    IPSA_ASSIGN_OR_RETURN(const ActionDef* def, actions->Get(name));
    CompiledAction out;
    out.def = def;
    IPSA_ASSIGN_OR_RETURN(out.body, CompileOps(def->body, def));
    return out;
  }
};

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

mem::BitString MakeBool(bool v) { return mem::BitString(1, v ? 1 : 0); }

// The PHV instance `id` if it is valid in this packet, else null. Callers
// build the error (InvalidInstance) only on the failure path, so the hot
// path carries no Status.
const HeaderInstance* FindValid(const PacketContext& ctx, HeaderId id) {
  const HeaderInstance* h = ctx.phv().Find(id);
  return h != nullptr && h->valid ? h : nullptr;
}

const std::string& NameOf(const PacketContext& ctx, HeaderId id) {
  return ctx.registry().NameOf(id);
}

Status InvalidInstance(const PacketContext& ctx, HeaderId id) {
  return FailedPrecondition("header instance '" + NameOf(ctx, id) +
                            "' is not valid in this packet");
}

Result<mem::BitString> ReadCompiledField(const CompiledField& f,
                                         PacketContext& ctx) {
  if (f.is_meta) {
    return ctx.metadata().SlotRead(f.meta_slot);
  }
  const HeaderInstance* h = FindValid(ctx, f.instance);
  if (h == nullptr) return InvalidInstance(ctx, f.instance);
  return ReadWireBits(ctx.packet().bytes(),
                      static_cast<size_t>(h->byte_offset) * 8 + f.offset_bits,
                      f.width_bits);
}

Status WriteCompiledField(const CompiledField& f, PacketContext& ctx,
                          const mem::BitString& v) {
  if (f.is_meta) {
    ctx.metadata().SlotWrite(f.meta_slot, v);
    return OkStatus();
  }
  const HeaderInstance* h = FindValid(ctx, f.instance);
  if (h == nullptr) return InvalidInstance(ctx, f.instance);
  WriteWireBits(ctx.packet().bytes(),
                static_cast<size_t>(h->byte_offset) * 8 + f.offset_bits,
                f.width_bits, v);
  return OkStatus();
}

// Narrow variant: `v` is masked to <= 64 bits and the destination is at
// most 64 bits wide. Metadata writes store the value masked to the slot
// width (a narrow slot), which equals SlotWrite's truncate/zero-extend
// assignment; wire writes mask the value at the field width, which equals
// WriteWireBits reading missing high bits as zero.
Status WriteCompiledField64(const CompiledField& f, PacketContext& ctx,
                            uint64_t v) {
  if (f.is_meta) {
    ctx.metadata().NarrowWrite(f.meta_slot, v);
    return OkStatus();
  }
  const HeaderInstance* h = FindValid(ctx, f.instance);
  if (h == nullptr) return InvalidInstance(ctx, f.instance);
  WriteWire64(ctx.packet().bytes(),
              static_cast<size_t>(h->byte_offset) * 8 + f.offset_bits,
              f.width_bits, v);
  return OkStatus();
}

// Mirrors EvalEnv for the compiled tree: raw action data instead of a bound
// parameter map.
struct CompiledEnv {
  PacketContext* ctx = nullptr;
  const mem::BitString* args = nullptr;
  RegisterFile* regs = nullptr;
};

Result<mem::BitString> EvalCompiled(const CompiledExpr& e,
                                    const CompiledEnv& env) {
  switch (e.kind) {
    case Expr::Kind::kConst:
      return e.constant;
    case Expr::Kind::kField:
      return ReadCompiledField(e.field, *env.ctx);
    case Expr::Kind::kRaw: {
      IPSA_ASSIGN_OR_RETURN(mem::BitString off, EvalCompiled(*e.lhs, env));
      const HeaderInstance* h = FindValid(*env.ctx, e.instance);
      if (h == nullptr) return InvalidInstance(*env.ctx, e.instance);
      return env.ctx->ReadRaw(*h, static_cast<uint32_t>(off.ToUint64()),
                              e.raw_width);
    }
    case Expr::Kind::kParam: {
      if (env.args == nullptr) {
        return FailedPrecondition("no action arguments bound");
      }
      // Zero-fill when the entry's action_data is too short for the
      // parameter (same as the interpreter).
      if (e.param_offset + e.param_width <= env.args->bit_width()) {
        return env.args->Slice(e.param_offset, e.param_width);
      }
      return mem::BitString(e.param_width);
    }
    case Expr::Kind::kRegister: {
      if (env.regs == nullptr) {
        return FailedPrecondition("no register file available");
      }
      IPSA_ASSIGN_OR_RETURN(mem::BitString idx, EvalCompiled(*e.lhs, env));
      IPSA_ASSIGN_OR_RETURN(
          uint64_t v,
          env.regs->Read(e.reg, static_cast<size_t>(idx.ToUint64())));
      return mem::BitString(64, v);
    }
    case Expr::Kind::kIsValid:
      return MakeBool(FindValid(*env.ctx, e.instance) != nullptr);
    case Expr::Kind::kUnary: {
      IPSA_ASSIGN_OR_RETURN(mem::BitString a, EvalCompiled(*e.lhs, env));
      return EvalUnaryKernel(e.op, a);
    }
    case Expr::Kind::kBinary: {
      if (e.op == Expr::Op::kAnd || e.op == Expr::Op::kOr) {
        IPSA_ASSIGN_OR_RETURN(mem::BitString a, EvalCompiled(*e.lhs, env));
        bool ta = BitsTruthy(a);
        if (e.op == Expr::Op::kAnd && !ta) return MakeBool(false);
        if (e.op == Expr::Op::kOr && ta) return MakeBool(true);
        IPSA_ASSIGN_OR_RETURN(mem::BitString b, EvalCompiled(*e.rhs, env));
        return MakeBool(BitsTruthy(b));
      }
      IPSA_ASSIGN_OR_RETURN(mem::BitString a, EvalCompiled(*e.lhs, env));
      IPSA_ASSIGN_OR_RETURN(mem::BitString b, EvalCompiled(*e.rhs, env));
      return EvalBinaryKernel(e.op, a, b);
    }
  }
  return InternalError("bad expression kind");
}

// ---------------------------------------------------------------------------
// Flat programs
// ---------------------------------------------------------------------------
//
// Expression trees whose every node fits in 64 bits (!wide, the common
// case) are lowered at compile time into a post-order program (see
// FlatInsn) that one loop evaluates over a fixed-size uint64_t stack. The
// invariant is that every stack value has zero bits above its static
// width, which makes truthiness `v != 0`, makes CompareBits an unsigned
// integer compare, and makes the arithmetic kernels' modular semantics
// plain 64-bit wrap-around followed by a mask. Every error string matches
// the BitString evaluator exactly so the two are observably identical.

constexpr uint64_t MaskOf(uint32_t width) {
  return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

bool IsCompare(Expr::Op op) {
  switch (op) {
    case Expr::Op::kEq:
    case Expr::Op::kNe:
    case Expr::Op::kLt:
    case Expr::Op::kLe:
    case Expr::Op::kGt:
    case Expr::Op::kGe:
      return true;
    default:
      return false;
  }
}

// Appends the post-order program of `e` to `code` and returns the static
// width of the value it leaves on the stack. `depth` is the stack height
// before `e` runs; `peak` records the highest height reached.
uint32_t Emit(const CompiledExpr& e, std::vector<FlatInsn>& code,
              uint32_t depth, uint32_t& peak) {
  using Code = FlatInsn::Code;
  peak = std::max(peak, depth + 1);
  FlatInsn in;
  switch (e.kind) {
    case Expr::Kind::kConst:
      in.code = Code::kConst;
      in.imm = e.constant.ToUint64();
      in.width = static_cast<uint32_t>(e.constant.bit_width());
      break;
    case Expr::Kind::kField:
      in.code = e.field.is_meta ? Code::kMeta : Code::kWire;
      in.arg = e.field.is_meta ? static_cast<uint32_t>(e.field.meta_slot)
                               : e.field.offset_bits;
      in.instance = e.field.instance;
      in.width = e.field.width_bits;
      break;
    case Expr::Kind::kRaw:
      Emit(*e.lhs, code, depth, peak);
      in.code = Code::kRaw;
      in.instance = e.instance;
      in.width = e.raw_width;
      break;
    case Expr::Kind::kParam:
      in.code = Code::kParam;
      in.arg = e.param_offset;
      in.width = e.param_width;
      break;
    case Expr::Kind::kRegister:
      // The register file is checked before the index is evaluated.
      code.push_back(FlatInsn{.code = Code::kNeedRegs});
      Emit(*e.lhs, code, depth, peak);
      in.code = Code::kRegister;
      in.reg = &e.reg;
      in.width = 64;
      break;
    case Expr::Kind::kIsValid:
      in.code = Code::kIsValid;
      in.instance = e.instance;
      in.width = 1;
      break;
    case Expr::Kind::kUnary: {
      uint32_t w = Emit(*e.lhs, code, depth, peak);
      in.code = Code::kUnary;
      in.op = e.op;
      in.width = e.op == Expr::Op::kBitNot ? w : 1;
      break;
    }
    case Expr::Kind::kBinary: {
      if (e.op == Expr::Op::kAnd || e.op == Expr::Op::kOr) {
        Emit(*e.lhs, code, depth, peak);
        const size_t jump = code.size();
        code.push_back(FlatInsn{.code = e.op == Expr::Op::kAnd
                                            ? Code::kAndJump
                                            : Code::kOrJump,
                                .width = 1});
        Emit(*e.rhs, code, depth, peak);
        in.code = Code::kTruthy;
        in.width = 1;
        code.push_back(in);
        code[jump].arg = static_cast<uint32_t>(code.size());
        return 1;
      }
      uint32_t wa = Emit(*e.lhs, code, depth, peak);
      uint32_t wb = Emit(*e.rhs, code, depth + 1, peak);
      in.code = Code::kBinary;
      in.op = e.op;
      in.width = IsCompare(e.op) ? 1 : std::max(wa, wb);
      break;
    }
  }
  code.push_back(in);
  return in.width;
}

// Lowers a narrow tree into its flat program. A tree too deep for the
// fixed stack (no real design comes close) stays on the BitString
// evaluator, which computes the same values.
void Lower(CompiledExpr& e) {
  if (e.wide) return;
  uint32_t peak = 0;
  Emit(e, e.program, 0, peak);
  if (peak > kFlatStackDepth) {
    e.program.clear();
    e.wide = true;
  }
}

void LowerOps(std::vector<CompiledOp>& ops) {
  for (CompiledOp& op : ops) {
    for (CompiledExprPtr* e :
         {&op.value, &op.offset, &op.index, &op.cond, &op.push_size}) {
      if (*e != nullptr) Lower(**e);
    }
    LowerOps(op.then_ops);
    LowerOps(op.else_ops);
  }
}

// Runs a flat program; the value it leaves is the expression's value.
Result<uint64_t> RunFlat(const std::vector<FlatInsn>& code,
                         const CompiledEnv& env) {
  using Code = FlatInsn::Code;
  PacketContext& ctx = *env.ctx;
  uint64_t stack[kFlatStackDepth];
  uint64_t* top = stack;  // one past the top value
  const size_t n = code.size();
  for (size_t pc = 0; pc < n;) {
    const FlatInsn& in = code[pc++];
    switch (in.code) {
      case Code::kConst:
        *top++ = in.imm;
        break;
      case Code::kMeta:
        *top++ = ctx.metadata().NarrowRead(static_cast<int>(in.arg));
        break;
      case Code::kWire: {
        const HeaderInstance* h = FindValid(ctx, in.instance);
        if (h == nullptr) return InvalidInstance(ctx, in.instance);
        *top++ = ReadWire64(ctx.packet().bytes(),
                            static_cast<size_t>(h->byte_offset) * 8 + in.arg,
                            in.width);
        break;
      }
      case Code::kRaw: {
        const HeaderInstance* h = FindValid(ctx, in.instance);
        if (h == nullptr) return InvalidInstance(ctx, in.instance);
        size_t abs = static_cast<size_t>(h->byte_offset) * 8 +
                     static_cast<uint32_t>(top[-1]);
        if (abs + in.width > ctx.packet().size() * 8) {
          return OutOfRange("raw read beyond packet end");
        }
        top[-1] = ReadWire64(ctx.packet().bytes(), abs, in.width);
        break;
      }
      case Code::kParam:
        if (env.args == nullptr) {
          return FailedPrecondition("no action arguments bound");
        }
        // Zero-fill when the entry's action_data is too short for the
        // parameter (same as the interpreter).
        *top++ = in.arg + in.width <= env.args->bit_width()
                     ? env.args->GetBits(in.arg, in.width)
                     : 0;
        break;
      case Code::kNeedRegs:
        if (env.regs == nullptr) {
          return FailedPrecondition("no register file available");
        }
        break;
      case Code::kRegister: {
        IPSA_ASSIGN_OR_RETURN(
            top[-1], env.regs->Read(*in.reg, static_cast<size_t>(top[-1])));
        break;
      }
      case Code::kIsValid:
        *top++ = FindValid(ctx, in.instance) != nullptr ? 1 : 0;
        break;
      case Code::kUnary:
        if (in.op == Expr::Op::kNot) {
          top[-1] = top[-1] == 0 ? 1 : 0;
        } else if (in.op == Expr::Op::kBitNot) {
          top[-1] = ~top[-1] & MaskOf(in.width);
        } else {
          return InternalError("bad unary op");
        }
        break;
      case Code::kAndJump:
        // A false left operand is the result (0); skip the right one.
        if (top[-1] == 0) {
          pc = in.arg;
        } else {
          --top;
        }
        break;
      case Code::kOrJump:
        if (top[-1] != 0) {
          top[-1] = 1;
          pc = in.arg;
        } else {
          --top;
        }
        break;
      case Code::kTruthy:
        top[-1] = top[-1] != 0 ? 1 : 0;
        break;
      case Code::kBinary: {
        const uint64_t b = *--top;
        const uint64_t a = top[-1];
        const uint32_t width = in.width;  // max operand width (<= 64)
        uint64_t r = 0;
        switch (in.op) {
          case Expr::Op::kEq:
            r = a == b;
            break;
          case Expr::Op::kNe:
            r = a != b;
            break;
          case Expr::Op::kLt:
            r = a < b;
            break;
          case Expr::Op::kLe:
            r = a <= b;
            break;
          case Expr::Op::kGt:
            r = a > b;
            break;
          case Expr::Op::kGe:
            r = a >= b;
            break;
          case Expr::Op::kAdd:
            r = a + b;
            break;
          case Expr::Op::kSub:
            r = a - b;
            break;
          case Expr::Op::kMul:
            r = a * b;
            break;
          case Expr::Op::kBitAnd:
            r = a & b;
            break;
          case Expr::Op::kBitOr:
            r = a | b;
            break;
          case Expr::Op::kBitXor:
            r = a ^ b;
            break;
          case Expr::Op::kShl:
            r = b >= 64 ? 0 : a << b;
            break;
          case Expr::Op::kShr:
            r = b >= 64 ? 0 : a >> b;
            break;
          case Expr::Op::kSatAdd: {
            const uint64_t m = MaskOf(width);
            const uint64_t sum = a + b;
            r = (sum < a || sum > m) ? m : sum;
            break;
          }
          case Expr::Op::kFxpQuantize: {
            const uint64_t m = MaskOf(width);
            if (a == 0) {
              r = 0;
            } else if (b >= width) {
              r = m;
            } else {
              r = a > (m >> b) ? m : (a << b);
            }
            break;
          }
          case Expr::Op::kFxpDequantize:
            if (b == 0) {
              r = a;
            } else if (b > 64) {
              r = 0;
            } else {
              const uint64_t q = b == 64 ? 0 : a >> b;
              r = q + ((a >> (b - 1)) & 1);
            }
            break;
          default:
            return InternalError("bad binary op");
        }
        top[-1] = r & MaskOf(width);
        break;
      }
    }
  }
  return stack[0];
}

// The low 64 bits of a compiled expression's value: its flat program when
// narrow, else the BitString evaluator's.
Result<uint64_t> EvalCompiledU64(const CompiledExpr& e,
                                 const CompiledEnv& env) {
  if (!e.wide) return RunFlat(e.program, env);
  IPSA_ASSIGN_OR_RETURN(mem::BitString v, EvalCompiled(e, env));
  return v.ToUint64();
}

Result<bool> EvalCompiledBool(const CompiledExpr& e, const CompiledEnv& env) {
  if (!e.wide) {
    IPSA_ASSIGN_OR_RETURN(uint64_t v, RunFlat(e.program, env));
    return v != 0;
  }
  IPSA_ASSIGN_OR_RETURN(mem::BitString v, EvalCompiled(e, env));
  return BitsTruthy(v);
}

Status RunCompiledOps(const std::vector<CompiledOp>& ops,
                      const CompiledEnv& env);

Status RunCompiledOp(const CompiledOp& op, const CompiledEnv& env) {
  PacketContext& ctx = *env.ctx;
  ctx.ChargeCycles(1);
  switch (op.kind) {
    case ActionOp::Kind::kNoop:
      return OkStatus();
    case ActionOp::Kind::kAssign: {
      if (!op.value->wide && op.dest.width_bits <= 64) {
        IPSA_ASSIGN_OR_RETURN(uint64_t v, RunFlat(op.value->program, env));
        return WriteCompiledField64(op.dest, ctx, v);
      }
      IPSA_ASSIGN_OR_RETURN(mem::BitString v, EvalCompiled(*op.value, env));
      return WriteCompiledField(op.dest, ctx, v);
    }
    case ActionOp::Kind::kAssignRaw: {
      IPSA_ASSIGN_OR_RETURN(uint64_t off, EvalCompiledU64(*op.offset, env));
      IPSA_ASSIGN_OR_RETURN(mem::BitString v, EvalCompiled(*op.value, env));
      const HeaderInstance* h = FindValid(ctx, op.instance);
      if (h == nullptr) return InvalidInstance(ctx, op.instance);
      return ctx.WriteRaw(*h, static_cast<uint32_t>(off), op.raw_width, v);
    }
    case ActionOp::Kind::kPushHeader: {
      uint32_t size = op.push_def->fixed_size_bytes();
      if (op.push_size != nullptr) {
        IPSA_ASSIGN_OR_RETURN(uint64_t s, EvalCompiledU64(*op.push_size, env));
        size = static_cast<uint32_t>(s);
      }
      uint32_t at = 0;
      if (op.after_instance != kNoHeader) {
        const HeaderInstance* after = FindValid(ctx, op.after_instance);
        if (after == nullptr) {
          return FailedPrecondition("push after invalid instance '" +
                                    NameOf(ctx, op.after_instance) + "'");
        }
        at = after->byte_offset + after->size_bytes;
      }
      IPSA_RETURN_IF_ERROR(ctx.packet().InsertBytes(at, size));
      ctx.phv().ShiftOffsets(at, static_cast<int32_t>(size));
      ctx.phv().Add(HeaderInstance{.id = op.instance,
                                   .byte_offset = at,
                                   .size_bytes = size,
                                   .valid = true,
                                   .def = op.push_def});
      return OkStatus();
    }
    case ActionOp::Kind::kPopHeader: {
      const HeaderInstance* h = FindValid(ctx, op.instance);
      if (h == nullptr) {
        return FailedPrecondition("pop of invalid instance '" +
                                  NameOf(ctx, op.instance) + "'");
      }
      uint32_t at = h->byte_offset;
      uint32_t size = h->size_bytes;
      IPSA_RETURN_IF_ERROR(ctx.packet().RemoveBytes(at, size));
      ctx.phv().RemoveInstance(h);
      ctx.phv().ShiftOffsets(at + 1, -static_cast<int32_t>(size));
      return OkStatus();
    }
    case ActionOp::Kind::kDrop:
      ctx.metadata().SlotWriteUint(op.dest.meta_slot, 1);
      return OkStatus();
    case ActionOp::Kind::kMark:
      ctx.metadata().SlotWriteUint(op.dest.meta_slot, 1);
      return OkStatus();
    case ActionOp::Kind::kForward: {
      IPSA_ASSIGN_OR_RETURN(uint64_t v, EvalCompiledU64(*op.value, env));
      ctx.metadata().SlotWriteUint(op.dest.meta_slot, v);
      return OkStatus();
    }
    case ActionOp::Kind::kRegWrite: {
      if (env.regs == nullptr) {
        return FailedPrecondition("no register file for RegWrite");
      }
      IPSA_ASSIGN_OR_RETURN(uint64_t idx, EvalCompiledU64(*op.index, env));
      IPSA_ASSIGN_OR_RETURN(uint64_t v, EvalCompiledU64(*op.value, env));
      return env.regs->Write(op.reg, static_cast<size_t>(idx), v);
    }
    case ActionOp::Kind::kIf: {
      IPSA_ASSIGN_OR_RETURN(bool taken, EvalCompiledBool(*op.cond, env));
      return RunCompiledOps(taken ? op.then_ops : op.else_ops, env);
    }
    case ActionOp::Kind::kUpdateChecksum: {
      const HeaderInstance* h = FindValid(ctx, op.instance);
      if (h == nullptr) {
        return FailedPrecondition("update_checksum on invalid instance '" +
                                  NameOf(ctx, op.instance) + "'");
      }
      if (op.dest.width_bits <= 64) {
        IPSA_RETURN_IF_ERROR(WriteCompiledField64(op.dest, ctx, 0));
        uint16_t sum = net::InternetChecksum(
            ctx.packet().bytes().subspan(h->byte_offset, h->size_bytes));
        return WriteCompiledField64(op.dest, ctx, sum);
      }
      IPSA_RETURN_IF_ERROR(
          WriteCompiledField(op.dest, ctx, mem::BitString(16, 0)));
      uint16_t sum = net::InternetChecksum(
          ctx.packet().bytes().subspan(h->byte_offset, h->size_bytes));
      return WriteCompiledField(op.dest, ctx, mem::BitString(16, sum));
    }
  }
  return InternalError("bad action op kind");
}

Status RunCompiledOps(const std::vector<CompiledOp>& ops,
                      const CompiledEnv& env) {
  for (const CompiledOp& op : ops) {
    IPSA_RETURN_IF_ERROR(RunCompiledOp(op, env));
  }
  return OkStatus();
}

// Extracts the rule's lookup key into `scratch.key` through the fused
// segment plan: every referenced header instance is resolved in the PHV
// once, then each segment slices one contiguous wire (or metadata) run into
// place. The key is assembled in 64-bit words (`scratch.key_words`) and
// stored with one copy.
constexpr size_t kMaxKeyInstances = 8;

Status BuildCompiledKey(const CompiledRule& rule, const PacketContext& ctx,
                        table::LookupScratch& scratch) {
  // Instances are listed in first-use order, so the first unresolvable one
  // matches the field order the interpreter fails in.
  const HeaderInstance* instances[kMaxKeyInstances];
  const size_t n = rule.key_instances.size();
  if (n <= kMaxKeyInstances) {
    for (size_t i = 0; i < n; ++i) {
      instances[i] = FindValid(ctx, rule.key_instances[i]);
      if (instances[i] == nullptr) {
        return InvalidInstance(ctx, rule.key_instances[i]);
      }
    }
  }
  std::vector<uint64_t>& words = scratch.key_words;
  words.assign((rule.key_width_bits + 63) / 64, 0);
  // ORs a run of `c` <= 64 key bits, already masked, into place; a run may
  // straddle two words.
  auto put = [&words](size_t at, size_t c, uint64_t v) {
    size_t shift = at % 64;
    words[at / 64] |= v << shift;
    if (shift + c > 64) words[at / 64 + 1] |= v >> (64 - shift);
  };
  const Metadata& meta = ctx.metadata();
  std::span<const uint8_t> wire = ctx.packet().bytes();
  for (const KeySegment& s : rule.key) {
    size_t w = s.width_bits;
    if (s.is_meta) {
      const mem::BitString* wide = meta.WideValue(s.meta_slot);
      if (wide == nullptr) {
        put(s.dest_bits, w, meta.NarrowRead(s.meta_slot));
        continue;
      }
      for (size_t i = 0; i < w; i += 64) {
        size_t c = std::min<size_t>(64, w - i);
        put(s.dest_bits + i, c, wide->GetBits(i, c));
      }
      continue;
    }
    const HeaderId id = rule.key_instances[s.instance];
    const HeaderInstance* h =
        n <= kMaxKeyInstances ? instances[s.instance] : FindValid(ctx, id);
    if (h == nullptr) return InvalidInstance(ctx, id);
    size_t base = static_cast<size_t>(h->byte_offset) * 8 + s.offset_bits;
    // Wire bits land MSB-first within the segment's value, so chunk i of
    // the wire maps to key bits [dest + w-i-c, dest + w-i).
    for (size_t i = 0; i < w; i += 64) {
      size_t c = std::min<size_t>(64, w - i);
      put(s.dest_bits + w - i - c, c, ReadWire64(wire, base + i, c));
    }
  }
  scratch.key.AssignWords(rule.key_width_bits, words.data());
  return OkStatus();
}

// Lowers a rule's per-field key plan into fused segments: deduplicates the
// header instances and merges a field into the previous segment when the
// pair reads one contiguous wire run in MSB-first order (because key
// concatenation is low-bits-first while wire order is MSB-first, that is
// exactly when the later field sits immediately *before* the earlier one on
// the wire).
void FuseKeyPlan(const std::vector<CompiledField>& fields, CompiledRule& out) {
  uint32_t at = 0;
  for (const CompiledField& f : fields) {
    KeySegment seg;
    seg.is_meta = f.is_meta;
    seg.width_bits = f.width_bits;
    seg.dest_bits = at;
    at += f.width_bits;
    if (f.is_meta) {
      seg.meta_slot = f.meta_slot;
      out.key.push_back(seg);
      continue;
    }
    uint32_t idx = 0;
    for (; idx < out.key_instances.size(); ++idx) {
      if (out.key_instances[idx] == f.instance) break;
    }
    if (idx == out.key_instances.size()) out.key_instances.push_back(f.instance);
    seg.instance = idx;
    seg.offset_bits = f.offset_bits;
    if (!out.key.empty()) {
      KeySegment& prev = out.key.back();
      if (!prev.is_meta && prev.instance == seg.instance &&
          prev.offset_bits == seg.offset_bits + seg.width_bits) {
        prev.offset_bits = seg.offset_bits;
        prev.width_bits += seg.width_bits;
        continue;
      }
    }
    out.key.push_back(seg);
  }
  out.key_width_bits = at;
}

// Register scan over an uncompiled expression tree.
bool ExprUsesRegisters(const Expr& e) {
  if (e.kind() == Expr::Kind::kRegister) return true;
  if (e.lhs() != nullptr && ExprUsesRegisters(*e.lhs())) return true;
  if (e.rhs() != nullptr && ExprUsesRegisters(*e.rhs())) return true;
  return false;
}

bool OpsUseRegisters(const std::vector<ActionOp>& ops) {
  for (const ActionOp& op : ops) {
    if (op.kind == ActionOp::Kind::kRegWrite) return true;
    for (const ExprPtr& e :
         {op.value, op.raw_offset, op.push_size_bytes, op.index, op.cond}) {
      if (e != nullptr && ExprUsesRegisters(*e)) return true;
    }
    if (OpsUseRegisters(op.then_ops) || OpsUseRegisters(op.else_ops)) {
      return true;
    }
  }
  return false;
}

}  // namespace

// Fault injection (see header). A plain global: the harness flips it before
// constructing devices and the flag is only read at compile time, never on
// the packet path.
namespace {
bool g_compiled_stage_fault = false;

// Wraps the value of the first kAssign/kForward op found (depth-first) in a
// "+ 1", making the compiled stage deliberately disagree with the
// interpreter. Returns true once a perturbation was applied.
bool PerturbFirstAssign(std::vector<CompiledOp>& ops) {
  for (CompiledOp& op : ops) {
    if ((op.kind == ActionOp::Kind::kAssign ||
         op.kind == ActionOp::Kind::kForward) &&
        op.value != nullptr) {
      auto one = std::make_unique<CompiledExpr>();
      one->kind = Expr::Kind::kConst;
      one->constant = mem::BitString(64, 1);
      auto sum = std::make_unique<CompiledExpr>();
      sum->kind = Expr::Kind::kBinary;
      sum->op = Expr::Op::kAdd;
      sum->lhs = std::move(op.value);
      sum->rhs = std::move(one);
      sum->wide = sum->lhs->wide;  // keep the evaluator choice consistent
      op.value = std::move(sum);
      return true;
    }
    if (PerturbFirstAssign(op.then_ops) || PerturbFirstAssign(op.else_ops)) {
      return true;
    }
  }
  return false;
}
}  // namespace

void SetCompiledStageFault(bool enabled) { g_compiled_stage_fault = enabled; }
bool CompiledStageFaultEnabled() { return g_compiled_stage_fault; }

Result<CompiledStage> CompileStage(const StageProgram& stage,
                                   const TableCatalog& catalog,
                                   const ActionStore& actions,
                                   const HeaderRegistry& registry,
                                   const Metadata& metadata_proto) {
  Compiler c{&catalog, &actions, &registry, &metadata_proto};
  CompiledStage out;
  out.source = &stage;
  // A parse-set name the registry never saw resolves to kNoHeader, which no
  // PHV holds — the walk parses to the end of the chain, as by name.
  for (const std::string& name : stage.parse_set) {
    out.parse_ids.push_back(registry.IdOf(name));
  }

  for (const MatchRule& rule : stage.matcher) {
    CompiledRule cr;
    if (rule.guard != nullptr) {
      IPSA_ASSIGN_OR_RETURN(cr.guard, c.Compile(*rule.guard, nullptr));
    }
    if (!rule.table.empty()) {
      cr.has_table = true;
      IPSA_ASSIGN_OR_RETURN(cr.table, catalog.Get(rule.table));
      IPSA_ASSIGN_OR_RETURN(const TableBinding* binding,
                            catalog.GetBinding(rule.table));
      std::vector<CompiledField> fields;
      fields.reserve(binding->key_fields.size());
      for (const FieldRef& ref : binding->key_fields) {
        IPSA_ASSIGN_OR_RETURN(CompiledField f, c.Field(ref));
        fields.push_back(std::move(f));
      }
      FuseKeyPlan(fields, cr);
    }
    out.rules.push_back(std::move(cr));
  }

  for (const auto& [tag, name] : stage.executor) {
    IPSA_ASSIGN_OR_RETURN(CompiledAction a, c.Action(name));
    out.branch_tags.push_back(tag);  // std::map iterates tags ascending
    out.branch_actions.push_back(std::move(a));
  }
  IPSA_ASSIGN_OR_RETURN(out.miss, c.Action(stage.miss_action));

  out.uses_registers = c.uses_registers;

  if (g_compiled_stage_fault) {
    bool perturbed = false;
    for (CompiledAction& a : out.branch_actions) {
      if (PerturbFirstAssign(a.body)) {
        perturbed = true;
        break;
      }
    }
    if (!perturbed) PerturbFirstAssign(out.miss.body);
  }

  // Lower every narrow expression into its flat program, last, so the
  // programs see the final trees.
  for (CompiledRule& rule : out.rules) {
    if (rule.guard != nullptr) Lower(*rule.guard);
  }
  for (CompiledAction& a : out.branch_actions) LowerOps(a.body);
  LowerOps(out.miss.body);
  return out;
}

Result<StageRunStats> RunCompiledStage(const CompiledStage& stage,
                                       PacketContext& ctx, RegisterFile* regs,
                                       bool jit_parse, bool fill_names) {
  StageRunStats stats;

  // 1. Parser sub-module (same engine as the interpreter).
  if (jit_parse && !stage.parse_ids.empty()) {
    IPSA_ASSIGN_OR_RETURN(ParseStats ps,
                          ParseEngine::ParseUntil(ctx, stage.parse_ids));
    stats.parse_cycles = ps.cycles;
    stats.parse_bytes = ps.bytes_parsed;
  }

  // 2. Matcher sub-module.
  CompiledEnv env{&ctx, nullptr, regs};
  const CompiledRule* chosen = nullptr;
  for (const CompiledRule& rule : stage.rules) {
    ctx.ChargeCycles(1);
    ++stats.match_cycles;
    if (rule.guard != nullptr) {
      IPSA_ASSIGN_OR_RETURN(bool taken, EvalCompiledBool(*rule.guard, env));
      if (!taken) continue;
    }
    if (!rule.has_table) break;  // explicit "else: no table" branch
    chosen = &rule;
    break;
  }

  uint32_t tag = 0;
  bool run_executor = false;
  // Empty args for the no-table path; table lookups fill the per-worker
  // scratch in place so the hot path never allocates.
  static const mem::BitString kNoArgs;
  const mem::BitString* action_data = &kNoArgs;
  if (chosen != nullptr) {
    table::LookupScratch& scratch = ctx.lookup_scratch();
    IPSA_RETURN_IF_ERROR(BuildCompiledKey(*chosen, ctx, scratch));
    table::LookupResult& result = scratch.result;
    chosen->table->LookupInto(scratch.key, result);
    scratch.tally.Count(*chosen->table, result);
    ctx.ChargeCycles(result.access_cycles);
    stats.match_cycles += result.access_cycles;
    stats.access_cycles = result.access_cycles;
    stats.table_applied = true;
    if (fill_names) stats.applied_table = chosen->table->spec().name;
    stats.hit = result.hit;
    tag = result.action_id;
    action_data = &result.action_data;
    run_executor = true;
  }

  // 3. Executor sub-module.
  const CompiledAction* action = &stage.miss;
  if (run_executor) {
    auto it = std::lower_bound(stage.branch_tags.begin(),
                               stage.branch_tags.end(), tag);
    if (it != stage.branch_tags.end() && *it == tag) {
      action = &stage.branch_actions[static_cast<size_t>(
          it - stage.branch_tags.begin())];
    }
  }
  env.args = action_data;
  uint64_t before = ctx.cycles();
  IPSA_RETURN_IF_ERROR(RunCompiledOps(action->body, env));
  stats.action_cycles = ctx.cycles() - before;
  if (fill_names) stats.executed_action = action->def->name;
  return stats;
}

bool StageMayUseRegisters(const StageProgram& stage,
                          const ActionStore& actions) {
  for (const MatchRule& rule : stage.matcher) {
    if (rule.guard != nullptr && ExprUsesRegisters(*rule.guard)) return true;
  }
  auto action_uses = [&actions](const std::string& name) {
    auto def = actions.Get(name);
    if (!def.ok()) return true;  // unknown action: be conservative
    return OpsUseRegisters((*def)->body);
  };
  for (const auto& [tag, name] : stage.executor) {
    if (action_uses(name)) return true;
  }
  return action_uses(stage.miss_action);
}

}  // namespace ipsa::arch
