#include "arch/expr.h"

#include <algorithm>

#include "arch/actions.h"

namespace ipsa::arch {

namespace {

// Byte `i` of `v` with any padding bits above bit_width() masked away, so
// the comparison never depends on unused storage bits.
inline uint8_t MaskedByte(const mem::BitString& v, size_t i) {
  if (i >= v.byte_size()) return 0;
  uint8_t b = v.bytes()[i];
  size_t rem = v.bit_width() - i * 8;
  if (rem < 8) b &= static_cast<uint8_t>((1u << rem) - 1);
  return b;
}

}  // namespace

int CompareBits(const mem::BitString& a, const mem::BitString& b) {
  size_t n = std::max(a.byte_size(), b.byte_size());
  for (size_t i = n; i > 0; --i) {
    uint8_t ba = MaskedByte(a, i - 1);
    uint8_t bb = MaskedByte(b, i - 1);
    if (ba != bb) return ba < bb ? -1 : 1;
  }
  return 0;
}

ExprPtr Expr::Const(mem::BitString v) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kConst));
  e->const_ = std::move(v);
  return e;
}

ExprPtr Expr::ConstU(uint64_t v, uint32_t width_bits) {
  return Const(mem::BitString(width_bits, v));
}

ExprPtr Expr::Field(FieldRef ref) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kField));
  e->field_ = std::move(ref);
  return e;
}

ExprPtr Expr::Raw(std::string instance, ExprPtr bit_offset,
                  uint32_t width_bits) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kRaw));
  e->name_ = std::move(instance);
  e->lhs_ = std::move(bit_offset);
  e->width_ = width_bits;
  return e;
}

ExprPtr Expr::Param(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kParam));
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Register(std::string name, ExprPtr index) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kRegister));
  e->name_ = std::move(name);
  e->lhs_ = std::move(index);
  return e;
}

ExprPtr Expr::IsValid(std::string instance) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kIsValid));
  e->name_ = std::move(instance);
  return e;
}

ExprPtr Expr::Unary(Op op, ExprPtr a) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kUnary));
  e->op_ = op;
  e->lhs_ = std::move(a);
  return e;
}

ExprPtr Expr::Binary(Op op, ExprPtr a, ExprPtr b) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kBinary));
  e->op_ = op;
  e->lhs_ = std::move(a);
  e->rhs_ = std::move(b);
  return e;
}

namespace {

mem::BitString MakeBool(bool v) { return mem::BitString(1, v ? 1 : 0); }

}  // namespace

bool BitsTruthy(const mem::BitString& v) {
  for (uint8_t b : v.bytes()) {
    if (b != 0) return true;
  }
  return false;
}

Result<mem::BitString> EvalUnaryKernel(Expr::Op op, const mem::BitString& a) {
  switch (op) {
    case Expr::Op::kNot:
      return MakeBool(!BitsTruthy(a));
    case Expr::Op::kBitNot: {
      mem::BitString out(a.bit_width());
      for (size_t i = 0; i < a.bit_width(); ++i) {
        out.SetBit(i, !a.GetBit(i));
      }
      return out;
    }
    default:
      return InternalError("bad unary op");
  }
}

Result<mem::BitString> EvalBinaryKernel(Expr::Op op, const mem::BitString& a,
                                        const mem::BitString& b) {
  switch (op) {
    case Expr::Op::kEq:
      return MakeBool(CompareBits(a, b) == 0);
    case Expr::Op::kNe:
      return MakeBool(CompareBits(a, b) != 0);
    case Expr::Op::kLt:
      return MakeBool(CompareBits(a, b) < 0);
    case Expr::Op::kLe:
      return MakeBool(CompareBits(a, b) <= 0);
    case Expr::Op::kGt:
      return MakeBool(CompareBits(a, b) > 0);
    case Expr::Op::kGe:
      return MakeBool(CompareBits(a, b) >= 0);
    default:
      break;
  }
  // Arithmetic/bitwise: modular over the low 64 bits, result as wide as
  // the wider operand (capped at 64).
  uint32_t width = static_cast<uint32_t>(
      std::min<size_t>(64, std::max(a.bit_width(), b.bit_width())));
  uint64_t va = a.ToUint64();
  uint64_t vb = b.ToUint64();
  uint64_t r = 0;
  switch (op) {
    case Expr::Op::kAdd:
      r = va + vb;
      break;
    case Expr::Op::kSub:
      r = va - vb;
      break;
    case Expr::Op::kMul:
      r = va * vb;
      break;
    case Expr::Op::kBitAnd:
      r = va & vb;
      break;
    case Expr::Op::kBitOr:
      r = va | vb;
      break;
    case Expr::Op::kBitXor:
      r = va ^ vb;
      break;
    case Expr::Op::kShl:
      r = vb >= 64 ? 0 : va << vb;
      break;
    case Expr::Op::kShr:
      r = vb >= 64 ? 0 : va >> vb;
      break;
    case Expr::Op::kSatAdd: {
      uint64_t m = width >= 64 ? ~0ull : ((1ull << width) - 1);
      uint64_t sum = va + vb;
      r = (sum < va || sum > m) ? m : sum;
      break;
    }
    case Expr::Op::kFxpQuantize: {
      uint64_t m = width >= 64 ? ~0ull : ((1ull << width) - 1);
      if (va == 0) {
        r = 0;
      } else if (vb >= width) {
        r = m;
      } else {
        r = va > (m >> vb) ? m : (va << vb);
      }
      break;
    }
    case Expr::Op::kFxpDequantize: {
      if (vb == 0) {
        r = va;
      } else if (vb > 64) {
        r = 0;
      } else {
        uint64_t q = vb == 64 ? 0 : va >> vb;
        r = q + ((va >> (vb - 1)) & 1);
      }
      break;
    }
    default:
      return InternalError("bad binary op");
  }
  return mem::BitString(width, r);
}

// Slices `name`'s bits out of `args_data` per `params`' declaration-order
// layout; zero-fills a parameter that does not fully fit.
static Result<mem::BitString> SliceParam(const std::vector<ActionParam>& params,
                                         const mem::BitString& args_data,
                                         const std::string& name) {
  size_t offset = 0;
  for (const ActionParam& p : params) {
    if (p.name == name) {
      if (offset + p.width_bits <= args_data.bit_width()) {
        return args_data.Slice(offset, p.width_bits);
      }
      return mem::BitString(p.width_bits);
    }
    offset += p.width_bits;
  }
  return NotFound("action parameter '" + name + "' not bound");
}

Result<mem::BitString> Expr::Eval(const EvalEnv& env) const {
  switch (kind_) {
    case Kind::kConst:
      return const_;
    case Kind::kField:
      return env.ctx->ReadField(field_);
    case Kind::kRaw: {
      IPSA_ASSIGN_OR_RETURN(mem::BitString off, lhs_->Eval(env));
      return env.ctx->ReadRaw(name_, static_cast<uint32_t>(off.ToUint64()),
                              width_);
    }
    case Kind::kParam: {
      if (env.args != nullptr) {
        auto it = env.args->find(name_);
        if (it == env.args->end()) {
          return NotFound("action parameter '" + name_ + "' not bound");
        }
        return it->second;
      }
      if (env.param_defs != nullptr && env.args_data != nullptr) {
        return SliceParam(*env.param_defs, *env.args_data, name_);
      }
      return FailedPrecondition("no action arguments bound");
    }
    case Kind::kRegister: {
      if (env.regs == nullptr) {
        return FailedPrecondition("no register file available");
      }
      IPSA_ASSIGN_OR_RETURN(mem::BitString idx, lhs_->Eval(env));
      IPSA_ASSIGN_OR_RETURN(
          uint64_t v, env.regs->Read(name_, static_cast<size_t>(idx.ToUint64())));
      return mem::BitString(64, v);
    }
    case Kind::kIsValid:
      return MakeBool(env.ctx->phv().IsValid(name_));
    case Kind::kUnary: {
      IPSA_ASSIGN_OR_RETURN(mem::BitString a, lhs_->Eval(env));
      return EvalUnaryKernel(op_, a);
    }
    case Kind::kBinary: {
      // Short-circuit the boolean connectives.
      if (op_ == Op::kAnd || op_ == Op::kOr) {
        IPSA_ASSIGN_OR_RETURN(mem::BitString a, lhs_->Eval(env));
        bool ta = BitsTruthy(a);
        if (op_ == Op::kAnd && !ta) return MakeBool(false);
        if (op_ == Op::kOr && ta) return MakeBool(true);
        IPSA_ASSIGN_OR_RETURN(mem::BitString b, rhs_->Eval(env));
        return MakeBool(BitsTruthy(b));
      }
      IPSA_ASSIGN_OR_RETURN(mem::BitString a, lhs_->Eval(env));
      IPSA_ASSIGN_OR_RETURN(mem::BitString b, rhs_->Eval(env));
      return EvalBinaryKernel(op_, a, b);
    }
  }
  return InternalError("bad expression kind");
}

Result<bool> Expr::EvalBool(const EvalEnv& env) const {
  IPSA_ASSIGN_OR_RETURN(mem::BitString v, Eval(env));
  return BitsTruthy(v);
}

void Expr::CollectHeaderDeps(std::vector<std::string>& out) const {
  switch (kind_) {
    case Kind::kField:
      if (field_.space == FieldRef::Space::kHeader) {
        out.push_back(field_.instance);
      }
      break;
    case Kind::kRaw:
    case Kind::kIsValid:
      out.push_back(name_);
      break;
    default:
      break;
  }
  if (lhs_) lhs_->CollectHeaderDeps(out);
  if (rhs_) rhs_->CollectHeaderDeps(out);
}

std::string_view OpName(Expr::Op op) {
  switch (op) {
    case Expr::Op::kNone:
      return "?";
    case Expr::Op::kNot:
      return "!";
    case Expr::Op::kBitNot:
      return "~";
    case Expr::Op::kEq:
      return "==";
    case Expr::Op::kNe:
      return "!=";
    case Expr::Op::kLt:
      return "<";
    case Expr::Op::kLe:
      return "<=";
    case Expr::Op::kGt:
      return ">";
    case Expr::Op::kGe:
      return ">=";
    case Expr::Op::kAnd:
      return "&&";
    case Expr::Op::kOr:
      return "||";
    case Expr::Op::kAdd:
      return "+";
    case Expr::Op::kSub:
      return "-";
    case Expr::Op::kMul:
      return "*";
    case Expr::Op::kBitAnd:
      return "&";
    case Expr::Op::kBitOr:
      return "|";
    case Expr::Op::kBitXor:
      return "^";
    case Expr::Op::kShl:
      return "<<";
    case Expr::Op::kShr:
      return ">>";
    case Expr::Op::kSatAdd:
      return "sat_add";
    case Expr::Op::kFxpQuantize:
      return "fxp_quantize";
    case Expr::Op::kFxpDequantize:
      return "fxp_dequantize";
  }
  return "?";
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kConst:
      return std::to_string(const_.ToUint64());
    case Kind::kField:
      return field_.ToString();
    case Kind::kRaw:
      return name_ + ".raw[" + lhs_->ToString() + " +: " +
             std::to_string(width_) + "]";
    case Kind::kParam:
      return name_;
    case Kind::kRegister:
      return name_ + "[" + lhs_->ToString() + "]";
    case Kind::kIsValid:
      return name_ + ".isValid()";
    case Kind::kUnary:
      return std::string(OpName(op_)) + "(" + lhs_->ToString() + ")";
    case Kind::kBinary:
      if (IsExternOp(op_)) {
        return std::string(OpName(op_)) + "(" + lhs_->ToString() + ", " +
               rhs_->ToString() + ")";
      }
      return "(" + lhs_->ToString() + " " + std::string(OpName(op_)) + " " +
             rhs_->ToString() + ")";
  }
  return "?";
}

bool ExprUsesExternOp(const ExprPtr& e) {
  if (e == nullptr) return false;
  if (Expr::IsExternOp(e->op())) return true;
  return ExprUsesExternOp(e->lhs()) || ExprUsesExternOp(e->rhs());
}

}  // namespace ipsa::arch
