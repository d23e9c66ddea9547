#include "arch/actions.h"

#include "net/checksum.h"

namespace ipsa::arch {

ActionOp ActionOp::Assign(FieldRef dest, ExprPtr value) {
  ActionOp op;
  op.kind = Kind::kAssign;
  op.dest = std::move(dest);
  op.value = std::move(value);
  return op;
}

ActionOp ActionOp::AssignRaw(std::string instance, ExprPtr offset,
                             uint32_t width, ExprPtr value) {
  ActionOp op;
  op.kind = Kind::kAssignRaw;
  op.instance = std::move(instance);
  op.raw_offset = std::move(offset);
  op.raw_width = width;
  op.value = std::move(value);
  return op;
}

ActionOp ActionOp::PushHeader(std::string type_name, std::string after,
                              ExprPtr size_bytes) {
  ActionOp op;
  op.kind = Kind::kPushHeader;
  op.instance = std::move(type_name);
  op.after_instance = std::move(after);
  op.push_size_bytes = std::move(size_bytes);
  return op;
}

ActionOp ActionOp::PopHeader(std::string instance) {
  ActionOp op;
  op.kind = Kind::kPopHeader;
  op.instance = std::move(instance);
  return op;
}

ActionOp ActionOp::Drop() {
  ActionOp op;
  op.kind = Kind::kDrop;
  return op;
}

ActionOp ActionOp::Mark() {
  ActionOp op;
  op.kind = Kind::kMark;
  return op;
}

ActionOp ActionOp::Forward(ExprPtr port) {
  ActionOp op;
  op.kind = Kind::kForward;
  op.value = std::move(port);
  return op;
}

ActionOp ActionOp::RegWrite(std::string reg, ExprPtr index, ExprPtr value) {
  ActionOp op;
  op.kind = Kind::kRegWrite;
  op.reg = std::move(reg);
  op.index = std::move(index);
  op.value = std::move(value);
  return op;
}

ActionOp ActionOp::UpdateChecksum(std::string instance,
                                  std::string checksum_field) {
  ActionOp op;
  op.kind = Kind::kUpdateChecksum;
  op.instance = std::move(instance);
  op.checksum_field = std::move(checksum_field);
  return op;
}

ActionOp ActionOp::If(ExprPtr cond, std::vector<ActionOp> then_ops,
                      std::vector<ActionOp> else_ops) {
  ActionOp op;
  op.kind = Kind::kIf;
  op.cond = std::move(cond);
  op.then_ops = std::move(then_ops);
  op.else_ops = std::move(else_ops);
  return op;
}

namespace {

Status ExecuteOne(const ActionOp& op, const EvalEnv& env) {
  PacketContext& ctx = *env.ctx;
  ctx.ChargeCycles(1);
  switch (op.kind) {
    case ActionOp::Kind::kNoop:
      return OkStatus();
    case ActionOp::Kind::kAssign: {
      IPSA_ASSIGN_OR_RETURN(mem::BitString v, op.value->Eval(env));
      return ctx.WriteField(op.dest, v);
    }
    case ActionOp::Kind::kAssignRaw: {
      IPSA_ASSIGN_OR_RETURN(mem::BitString off, op.raw_offset->Eval(env));
      IPSA_ASSIGN_OR_RETURN(mem::BitString v, op.value->Eval(env));
      return ctx.WriteRaw(op.instance, static_cast<uint32_t>(off.ToUint64()),
                          op.raw_width, v);
    }
    case ActionOp::Kind::kPushHeader: {
      IPSA_ASSIGN_OR_RETURN(const HeaderTypeDef* type,
                            ctx.registry().Get(op.instance));
      uint32_t size = type->fixed_size_bytes();
      if (op.push_size_bytes != nullptr) {
        IPSA_ASSIGN_OR_RETURN(mem::BitString s, op.push_size_bytes->Eval(env));
        size = static_cast<uint32_t>(s.ToUint64());
      }
      uint32_t at = 0;
      if (!op.after_instance.empty()) {
        const HeaderInstance* after = ctx.phv().Find(op.after_instance);
        if (after == nullptr || !after->valid) {
          return FailedPrecondition("push after invalid instance '" +
                                    op.after_instance + "'");
        }
        at = after->byte_offset + after->size_bytes;
      }
      IPSA_RETURN_IF_ERROR(ctx.packet().InsertBytes(at, size));
      ctx.phv().ShiftOffsets(at, static_cast<int32_t>(size));
      ctx.phv().Add(HeaderInstance{.id = type->id(),
                                   .byte_offset = at,
                                   .size_bytes = size,
                                   .valid = true,
                                   .def = type});
      return OkStatus();
    }
    case ActionOp::Kind::kPopHeader: {
      const HeaderInstance* h = ctx.phv().Find(op.instance);
      if (h == nullptr || !h->valid) {
        return FailedPrecondition("pop of invalid instance '" + op.instance +
                                  "'");
      }
      uint32_t at = h->byte_offset;
      uint32_t size = h->size_bytes;
      IPSA_RETURN_IF_ERROR(ctx.packet().RemoveBytes(at, size));
      ctx.phv().RemoveInstance(h);
      ctx.phv().ShiftOffsets(at + 1, -static_cast<int32_t>(size));
      return OkStatus();
    }
    case ActionOp::Kind::kDrop:
      return ctx.metadata().WriteUint("drop", 1);
    case ActionOp::Kind::kMark:
      return ctx.metadata().WriteUint("mark", 1);
    case ActionOp::Kind::kForward: {
      IPSA_ASSIGN_OR_RETURN(mem::BitString v, op.value->Eval(env));
      return ctx.metadata().WriteUint("egress_spec", v.ToUint64());
    }
    case ActionOp::Kind::kRegWrite: {
      if (env.regs == nullptr) {
        return FailedPrecondition("no register file for RegWrite");
      }
      IPSA_ASSIGN_OR_RETURN(mem::BitString idx, op.index->Eval(env));
      IPSA_ASSIGN_OR_RETURN(mem::BitString v, op.value->Eval(env));
      return env.regs->Write(op.reg, static_cast<size_t>(idx.ToUint64()),
                             v.ToUint64());
    }
    case ActionOp::Kind::kIf: {
      IPSA_ASSIGN_OR_RETURN(bool taken, op.cond->EvalBool(env));
      return ExecuteOps(taken ? op.then_ops : op.else_ops, env);
    }
    case ActionOp::Kind::kUpdateChecksum: {
      const HeaderInstance* h = ctx.phv().Find(op.instance);
      if (h == nullptr || !h->valid) {
        return FailedPrecondition("update_checksum on invalid instance '" +
                                  op.instance + "'");
      }
      FieldRef field = FieldRef::Header(op.instance, op.checksum_field);
      IPSA_RETURN_IF_ERROR(ctx.WriteField(field, mem::BitString(16, 0)));
      uint16_t sum = net::InternetChecksum(
          ctx.packet().bytes().subspan(h->byte_offset, h->size_bytes));
      return ctx.WriteField(field, mem::BitString(16, sum));
    }
  }
  return InternalError("bad action op kind");
}

}  // namespace

Status ExecuteOps(const std::vector<ActionOp>& ops, const EvalEnv& env) {
  for (const ActionOp& op : ops) {
    IPSA_RETURN_IF_ERROR(ExecuteOne(op, env));
  }
  return OkStatus();
}

Status ExecuteAction(const ActionDef& action, const mem::BitString& args_data,
                     PacketContext& ctx, RegisterFile* regs) {
  // Zero-copy parameter binding: kParam slices args_data on demand instead
  // of materialising a name->value map per packet.
  EvalEnv env{.ctx = &ctx,
              .args = nullptr,
              .regs = regs,
              .param_defs = &action.params,
              .args_data = &args_data};
  return ExecuteOps(action.body, env);
}

const ActionDef& NoAction() {
  static const ActionDef kNoAction{.name = "NoAction", .params = {}, .body = {}};
  return kNoAction;
}

namespace {

bool OpsUseExternOps(const std::vector<ActionOp>& ops) {
  for (const ActionOp& op : ops) {
    if (ExprUsesExternOp(op.value) || ExprUsesExternOp(op.raw_offset) ||
        ExprUsesExternOp(op.index) || ExprUsesExternOp(op.cond) ||
        ExprUsesExternOp(op.push_size_bytes)) {
      return true;
    }
    if (OpsUseExternOps(op.then_ops) || OpsUseExternOps(op.else_ops)) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool ActionUsesExternOps(const ActionDef& action) {
  return OpsUseExternOps(action.body);
}

}  // namespace ipsa::arch
