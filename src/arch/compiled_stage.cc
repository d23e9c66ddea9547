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

// Scalar-lane variant: `v` is masked to <= 64 bits and the destination is at
// most 64 bits wide. Metadata writes store the value masked to the slot
// width (a narrow slot), which equals SlotWrite's truncate/zero-extend
// assignment; wire writes mask the value at the field width, which equals
// WriteWireBits reading missing high bits as zero.
Status WriteCompiledFieldScalar(const CompiledField& f, PacketContext& ctx,
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
      // parameter (same as BindActionArgs).
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
// Scalar lane
// ---------------------------------------------------------------------------
//
// Expression subtrees whose every node fits in 64 bits (!wide, the common
// case) evaluate on masked (value, width) pairs instead of BitString
// temporaries. The invariant is that `v` always has zero bits above `width`,
// which makes truthiness `v != 0`, makes CompareBits an unsigned integer
// compare, and makes the arithmetic kernels' modular semantics plain 64-bit
// wrap-around followed by a mask. Every error string matches the BitString
// lane exactly so the two lanes are observably identical.

struct Scalar {
  uint64_t v = 0;
  uint32_t width = 1;
};

constexpr uint64_t MaskOf(uint32_t width) {
  return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

Scalar ScalarBool(bool b) { return {b ? uint64_t{1} : 0, 1}; }

Result<Scalar> EvalScalar(const CompiledExpr& e, const CompiledEnv& env) {
  switch (e.kind) {
    case Expr::Kind::kConst:
      return Scalar{e.constant.ToUint64(),
                    static_cast<uint32_t>(e.constant.bit_width())};
    case Expr::Kind::kField: {
      const CompiledField& f = e.field;
      if (f.is_meta) {
        return Scalar{env.ctx->metadata().NarrowRead(f.meta_slot),
                      f.width_bits};
      }
      const HeaderInstance* h = FindValid(*env.ctx, f.instance);
      if (h == nullptr) return InvalidInstance(*env.ctx, f.instance);
      return Scalar{
          ReadWire64(env.ctx->packet().bytes(),
                     static_cast<size_t>(h->byte_offset) * 8 + f.offset_bits,
                     f.width_bits),
          f.width_bits};
    }
    case Expr::Kind::kRaw: {
      IPSA_ASSIGN_OR_RETURN(Scalar off, EvalScalar(*e.lhs, env));
      PacketContext& ctx = *env.ctx;
      const HeaderInstance* h = FindValid(ctx, e.instance);
      if (h == nullptr) return InvalidInstance(ctx, e.instance);
      size_t abs = static_cast<size_t>(h->byte_offset) * 8 +
                   static_cast<uint32_t>(off.v);
      if (abs + e.raw_width > ctx.packet().size() * 8) {
        return OutOfRange("raw read beyond packet end");
      }
      return Scalar{ReadWire64(ctx.packet().bytes(), abs, e.raw_width),
                    e.raw_width};
    }
    case Expr::Kind::kParam: {
      if (env.args == nullptr) {
        return FailedPrecondition("no action arguments bound");
      }
      if (e.param_offset + e.param_width <= env.args->bit_width()) {
        return Scalar{env.args->GetBits(e.param_offset, e.param_width),
                      e.param_width};
      }
      return Scalar{0, e.param_width};
    }
    case Expr::Kind::kRegister: {
      if (env.regs == nullptr) {
        return FailedPrecondition("no register file available");
      }
      IPSA_ASSIGN_OR_RETURN(Scalar idx, EvalScalar(*e.lhs, env));
      IPSA_ASSIGN_OR_RETURN(uint64_t v,
                            env.regs->Read(e.reg, static_cast<size_t>(idx.v)));
      return Scalar{v, 64};
    }
    case Expr::Kind::kIsValid:
      return ScalarBool(FindValid(*env.ctx, e.instance) != nullptr);
    case Expr::Kind::kUnary: {
      IPSA_ASSIGN_OR_RETURN(Scalar a, EvalScalar(*e.lhs, env));
      if (e.op == Expr::Op::kNot) return ScalarBool(a.v == 0);
      if (e.op == Expr::Op::kBitNot) {
        return Scalar{~a.v & MaskOf(a.width), a.width};
      }
      return InternalError("bad unary op");
    }
    case Expr::Kind::kBinary: {
      if (e.op == Expr::Op::kAnd || e.op == Expr::Op::kOr) {
        IPSA_ASSIGN_OR_RETURN(Scalar a, EvalScalar(*e.lhs, env));
        bool ta = a.v != 0;
        if (e.op == Expr::Op::kAnd && !ta) return ScalarBool(false);
        if (e.op == Expr::Op::kOr && ta) return ScalarBool(true);
        IPSA_ASSIGN_OR_RETURN(Scalar b, EvalScalar(*e.rhs, env));
        return ScalarBool(b.v != 0);
      }
      IPSA_ASSIGN_OR_RETURN(Scalar a, EvalScalar(*e.lhs, env));
      IPSA_ASSIGN_OR_RETURN(Scalar b, EvalScalar(*e.rhs, env));
      // Masked values compare as unsigned integers, identical to the
      // byte-wise CompareBits on <=64-bit strings.
      switch (e.op) {
        case Expr::Op::kEq:
          return ScalarBool(a.v == b.v);
        case Expr::Op::kNe:
          return ScalarBool(a.v != b.v);
        case Expr::Op::kLt:
          return ScalarBool(a.v < b.v);
        case Expr::Op::kLe:
          return ScalarBool(a.v <= b.v);
        case Expr::Op::kGt:
          return ScalarBool(a.v > b.v);
        case Expr::Op::kGe:
          return ScalarBool(a.v >= b.v);
        default:
          break;
      }
      uint32_t width = std::max(a.width, b.width);  // operand widths <= 64
      uint64_t r = 0;
      switch (e.op) {
        case Expr::Op::kAdd:
          r = a.v + b.v;
          break;
        case Expr::Op::kSub:
          r = a.v - b.v;
          break;
        case Expr::Op::kMul:
          r = a.v * b.v;
          break;
        case Expr::Op::kBitAnd:
          r = a.v & b.v;
          break;
        case Expr::Op::kBitOr:
          r = a.v | b.v;
          break;
        case Expr::Op::kBitXor:
          r = a.v ^ b.v;
          break;
        case Expr::Op::kShl:
          r = b.v >= 64 ? 0 : a.v << b.v;
          break;
        case Expr::Op::kShr:
          r = b.v >= 64 ? 0 : a.v >> b.v;
          break;
        case Expr::Op::kSatAdd: {
          uint64_t m = MaskOf(width);
          uint64_t sum = a.v + b.v;
          r = (sum < a.v || sum > m) ? m : sum;
          break;
        }
        case Expr::Op::kFxpQuantize: {
          uint64_t m = MaskOf(width);
          if (a.v == 0) {
            r = 0;
          } else if (b.v >= width) {
            r = m;
          } else {
            r = a.v > (m >> b.v) ? m : (a.v << b.v);
          }
          break;
        }
        case Expr::Op::kFxpDequantize: {
          if (b.v == 0) {
            r = a.v;
          } else if (b.v > 64) {
            r = 0;
          } else {
            uint64_t q = b.v == 64 ? 0 : a.v >> b.v;
            r = q + ((a.v >> (b.v - 1)) & 1);
          }
          break;
        }
        default:
          return InternalError("bad binary op");
      }
      return Scalar{r & MaskOf(width), width};
    }
  }
  return InternalError("bad expression kind");
}

Result<bool> EvalCompiledBool(const CompiledExpr& e, const CompiledEnv& env) {
  if (!e.wide) {
    IPSA_ASSIGN_OR_RETURN(Scalar v, EvalScalar(e, env));
    return v.v != 0;
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
        IPSA_ASSIGN_OR_RETURN(Scalar v, EvalScalar(*op.value, env));
        return WriteCompiledFieldScalar(op.dest, ctx, v.v);
      }
      IPSA_ASSIGN_OR_RETURN(mem::BitString v, EvalCompiled(*op.value, env));
      return WriteCompiledField(op.dest, ctx, v);
    }
    case ActionOp::Kind::kAssignRaw: {
      uint32_t off_v;
      if (!op.offset->wide) {
        IPSA_ASSIGN_OR_RETURN(Scalar off, EvalScalar(*op.offset, env));
        off_v = static_cast<uint32_t>(off.v);
      } else {
        IPSA_ASSIGN_OR_RETURN(mem::BitString off,
                              EvalCompiled(*op.offset, env));
        off_v = static_cast<uint32_t>(off.ToUint64());
      }
      IPSA_ASSIGN_OR_RETURN(mem::BitString v, EvalCompiled(*op.value, env));
      const HeaderInstance* h = FindValid(ctx, op.instance);
      if (h == nullptr) return InvalidInstance(ctx, op.instance);
      return ctx.WriteRaw(*h, off_v, op.raw_width, v);
    }
    case ActionOp::Kind::kPushHeader: {
      uint32_t size = op.push_def->fixed_size_bytes();
      if (op.push_size != nullptr) {
        IPSA_ASSIGN_OR_RETURN(mem::BitString s, EvalCompiled(*op.push_size, env));
        size = static_cast<uint32_t>(s.ToUint64());
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
      if (!op.value->wide) {
        IPSA_ASSIGN_OR_RETURN(Scalar v, EvalScalar(*op.value, env));
        ctx.metadata().SlotWriteUint(op.dest.meta_slot, v.v);
        return OkStatus();
      }
      IPSA_ASSIGN_OR_RETURN(mem::BitString v, EvalCompiled(*op.value, env));
      ctx.metadata().SlotWriteUint(op.dest.meta_slot, v.ToUint64());
      return OkStatus();
    }
    case ActionOp::Kind::kRegWrite: {
      if (env.regs == nullptr) {
        return FailedPrecondition("no register file for RegWrite");
      }
      if (!op.index->wide && !op.value->wide) {
        IPSA_ASSIGN_OR_RETURN(Scalar idx, EvalScalar(*op.index, env));
        IPSA_ASSIGN_OR_RETURN(Scalar v, EvalScalar(*op.value, env));
        return env.regs->Write(op.reg, static_cast<size_t>(idx.v), v.v);
      }
      IPSA_ASSIGN_OR_RETURN(mem::BitString idx, EvalCompiled(*op.index, env));
      IPSA_ASSIGN_OR_RETURN(mem::BitString v, EvalCompiled(*op.value, env));
      return env.regs->Write(op.reg, static_cast<size_t>(idx.ToUint64()),
                             v.ToUint64());
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
        IPSA_RETURN_IF_ERROR(WriteCompiledFieldScalar(op.dest, ctx, 0));
        uint16_t sum = net::InternetChecksum(
            ctx.packet().bytes().subspan(h->byte_offset, h->size_bytes));
        return WriteCompiledFieldScalar(op.dest, ctx, sum);
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
      sum->wide = sum->lhs->wide;  // keep the lane choice consistent
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
    for (CompiledAction& a : out.branch_actions) {
      if (PerturbFirstAssign(a.body)) return out;
    }
    PerturbFirstAssign(out.miss.body);
  }
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
