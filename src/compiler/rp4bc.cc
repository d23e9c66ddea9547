#include "compiler/rp4bc.h"

#include <algorithm>
#include <map>
#include <set>

#include "compiler/linearize.h"
#include "util/strings.h"

namespace ipsa::compiler {

namespace {

using arch::ActionDef;
using arch::DesignConfig;
using arch::FieldRef;
using arch::StageProgram;
using ipbm::TspAssignment;
using ipbm::TspRole;

const ActionDef* FindAction(const DesignConfig& design,
                            std::string_view name) {
  for (const auto& a : design.actions) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

// Whether any action this stage can execute edits packet structure
// (push/pop header) — such stages never merge.
bool EditsStructure(const DesignConfig& design, const StageProgram& stage) {
  auto op_edits = [](const auto& self, const arch::ActionOp& op) -> bool {
    if (op.kind == arch::ActionOp::Kind::kPushHeader ||
        op.kind == arch::ActionOp::Kind::kPopHeader) {
      return true;
    }
    for (const auto& o : op.then_ops) {
      if (self(self, o)) return true;
    }
    for (const auto& o : op.else_ops) {
      if (self(self, o)) return true;
    }
    return false;
  };
  for (const auto& [tag, name] : stage.executor) {
    const ActionDef* a = FindAction(design, name);
    if (a == nullptr) continue;
    for (const auto& op : a->body) {
      if (op_edits(op_edits, op)) return true;
    }
  }
  return false;
}

std::vector<FieldRef> StageWrites(const DesignConfig& design,
                                  const StageProgram& stage) {
  std::vector<FieldRef> writes;
  for (const auto& [tag, name] : stage.executor) {
    const ActionDef* a = FindAction(design, name);
    if (a != nullptr) CollectActionWrites(*a, writes);
  }
  return writes;
}

bool Overlaps(const std::vector<FieldRef>& a, const std::vector<FieldRef>& b) {
  for (const auto& x : a) {
    for (const auto& y : b) {
      if (x == y) return true;
    }
  }
  return false;
}

uint32_t BlocksForTable(const arch::TableDecl& t, const Rp4bcOptions& o) {
  bool tcam = t.spec.match_kind == table::MatchKind::kTernary;
  uint32_t w = tcam ? o.tcam_width_bits : o.sram_width_bits;
  uint32_t d = tcam ? o.tcam_depth : o.sram_depth;
  uint32_t row_width =
      t.spec.key_width_bits + 8 + 16 + t.spec.action_data_width_bits;
  return ((row_width + w - 1) / w) * ((t.spec.size + d - 1) / d);
}

// Per-cluster capacities with the pool's round-robin striping.
std::vector<ClusterCapacity> ClusterCapacities(const Rp4bcOptions& o) {
  uint32_t n = std::max<uint32_t>(1, o.clusters);
  std::vector<ClusterCapacity> caps(n);
  for (uint32_t i = 0; i < o.sram_blocks; ++i) ++caps[i % n].sram_blocks;
  for (uint32_t i = 0; i < o.tcam_blocks; ++i) ++caps[i % n].tcam_blocks;
  return caps;
}

// Groups a control's stages for TSP assignment, merging adjacent
// independent stages up to the per-TSP limit.
std::vector<LayoutGroup> GroupStages(const DesignConfig& design,
                                     const std::vector<StageProgram>& stages,
                                     TspRole role,
                                     const Rp4bcOptions& options) {
  std::vector<LayoutGroup> groups;
  for (const auto& stage : stages) {
    bool merged = false;
    if (options.merge_stages && !groups.empty() &&
        groups.back().stages.size() < options.max_stages_per_tsp) {
      // Candidate: merge into the previous group if independent with every
      // stage already in it.
      bool ok = true;
      for (const auto& name : groups.back().stages) {
        const StageProgram* prev = design.FindStage(name);
        if (prev == nullptr || !StagesIndependent(design, *prev, stage)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        groups.back().stages.push_back(stage.name);
        merged = true;
      }
    }
    if (!merged) {
      LayoutGroup g;
      g.role = role;
      g.stages.push_back(stage.name);
      groups.push_back(std::move(g));
    }
  }
  return groups;
}

std::map<std::string, uint32_t> StageToTsp(const TspLayout& layout) {
  std::map<std::string, uint32_t> out;
  for (const auto& a : layout.assignments) {
    for (const auto& s : a.stage_names) out[s] = a.tsp_id;
  }
  return out;
}

util::Json TemplatesToJson(const std::vector<TspAssignment>& assignments,
                           const DesignConfig& design) {
  util::Json arr = util::Json::Array();
  for (const auto& a : assignments) {
    util::Json tj = util::Json::Object();
    tj["tsp"] = a.tsp_id;
    tj["role"] = std::string(TspRoleName(a.role));
    util::Json stages = util::Json::Array();
    for (const auto& name : a.stage_names) {
      const StageProgram* s = design.FindStage(name);
      if (s != nullptr) stages.push_back(StageProgramToJson(*s));
    }
    tj["stages"] = std::move(stages);
    arr.push_back(std::move(tj));
  }
  return arr;
}

}  // namespace

bool StagesIndependent(const DesignConfig& design, const StageProgram& a,
                       const StageProgram& b) {
  if (EditsStructure(design, a) || EditsStructure(design, b)) return false;
  std::vector<FieldRef> writes_a = StageWrites(design, a);
  std::vector<FieldRef> writes_b = StageWrites(design, b);
  std::vector<FieldRef> reads_a = CollectStageReads(a, design.tables);
  std::vector<FieldRef> reads_b = CollectStageReads(b, design.tables);
  return !Overlaps(writes_a, reads_b) && !Overlaps(writes_b, reads_a) &&
         !Overlaps(writes_a, writes_b);
}

Result<Rp4bcResult> CompileBase(const rp4::Rp4Program& program,
                                const Rp4bcOptions& options) {
  IPSA_ASSIGN_OR_RETURN(DesignConfig design, rp4::LowerToDesign(program));

  std::vector<LayoutGroup> ingress_groups =
      GroupStages(design, design.ingress_stages, TspRole::kIngress, options);
  std::vector<LayoutGroup> egress_groups =
      GroupStages(design, design.egress_stages, TspRole::kEgress, options);
  size_t total = ingress_groups.size() + egress_groups.size();
  if (total > options.tsp_count) {
    return ResourceExhausted(
        util::Format("design needs %zu TSPs but the device has %u", total,
                     options.tsp_count));
  }

  Rp4bcResult result;
  // Ingress groups map to the leftmost TSPs, egress to the rightmost (§2.3).
  uint32_t next = 0;
  for (auto& g : ingress_groups) {
    TspAssignment a;
    a.tsp_id = next++;
    a.role = TspRole::kIngress;
    a.stage_names = g.stages;
    result.layout.assignments.push_back(std::move(a));
  }
  uint32_t egress_base =
      options.tsp_count - static_cast<uint32_t>(egress_groups.size());
  for (auto& g : egress_groups) {
    TspAssignment a;
    a.tsp_id = egress_base++;
    a.role = TspRole::kEgress;
    a.stage_names = g.stages;
    result.layout.assignments.push_back(std::move(a));
  }

  // Table allocation over the memory pool.
  std::map<std::string, uint32_t> stage_tsp = StageToTsp(result.layout);
  std::vector<AllocRequest> requests;
  for (const auto& t : design.tables) {
    AllocRequest req;
    req.table = t.spec.name;
    req.kind = t.spec.match_kind == table::MatchKind::kTernary
                   ? mem::BlockKind::kTcam
                   : mem::BlockKind::kSram;
    req.blocks_needed = BlocksForTable(t, options);
    if (options.clusters > 1) {
      // Clustered crossbar: the table must live in its TSP's cluster.
      for (const auto& a : result.layout.assignments) {
        for (const auto& name : a.stage_names) {
          const StageProgram* s = design.FindStage(name);
          if (s == nullptr) continue;
          for (const auto& rule : s->matcher) {
            if (rule.table == t.spec.name) {
              req.required_cluster = a.tsp_id % options.clusters;
            }
          }
        }
      }
    }
    requests.push_back(std::move(req));
  }
  IPSA_ASSIGN_OR_RETURN(
      result.alloc,
      SolveTableAllocation(requests, ClusterCapacities(options),
                           options.solver, options.solver_node_budget));
  result.layout.table_cluster = result.alloc.table_cluster;

  result.templates_json = TemplatesToJson(result.layout.assignments, design);
  result.design = std::move(design);
  return result;
}

// ---------------------------------------------------------------------------
// Incremental updates
// ---------------------------------------------------------------------------

namespace {

// The logical pipeline as an adjacency graph over stage names.
struct PipelineGraph {
  std::vector<std::string> nodes;  // original order (old stages then new)
  std::set<std::pair<std::string, std::string>> edges;

  bool HasNode(std::string_view n) const {
    return std::find(nodes.begin(), nodes.end(), n) != nodes.end();
  }

  // Kahn topological order over the subgraph reachable from `entry`,
  // breaking ties by original position. Every edge joins two nodes (links
  // are checked against `nodes` when added), so the walk runs over node
  // positions; a name listed twice is one node, at its first position.
  Result<std::vector<std::string>> OrderFrom(const std::string& entry) const {
    std::map<std::string_view, size_t> position;
    for (size_t i = 0; i < nodes.size(); ++i) position.emplace(nodes[i], i);
    auto entry_it = position.find(entry);
    if (entry_it == position.end()) return std::vector<std::string>{entry};
    std::vector<std::vector<size_t>> succ(nodes.size());
    for (const auto& [from, to] : edges) {
      auto f = position.find(from);
      auto t = position.find(to);
      if (f != position.end() && t != position.end()) {
        succ[f->second].push_back(t->second);
      }
    }
    // Reachability.
    std::vector<bool> reachable(nodes.size(), false);
    size_t reached = 0;
    std::vector<size_t> frontier{entry_it->second};
    while (!frontier.empty()) {
      const size_t n = frontier.back();
      frontier.pop_back();
      if (reachable[n]) continue;
      reachable[n] = true;
      ++reached;
      for (size_t to : succ[n]) frontier.push_back(to);
    }
    // Kahn.
    std::vector<uint32_t> indegree(nodes.size(), 0);
    for (size_t n = 0; n < nodes.size(); ++n) {
      if (!reachable[n]) continue;
      for (size_t to : succ[n]) {
        if (reachable[to]) ++indegree[to];
      }
    }
    std::vector<bool> consumed(nodes.size(), false);
    std::vector<std::string> order;
    order.reserve(reached);
    while (order.size() < reached) {
      // Pick the ready node with the smallest original index.
      size_t pick = nodes.size();
      for (size_t n = 0; n < nodes.size(); ++n) {
        if (reachable[n] && !consumed[n] && indegree[n] == 0) {
          pick = n;
          break;
        }
      }
      if (pick == nodes.size()) {
        return FailedPrecondition(
            "pipeline links form a cycle; cannot linearize");
      }
      order.push_back(nodes[pick]);
      consumed[pick] = true;
      for (size_t to : succ[pick]) {
        if (reachable[to] && indegree[to] > 0) --indegree[to];
      }
    }
    return order;
  }
};

// Validates then merges; collisions are compile-time errors so a plan never
// fails halfway through device application.
Status MergeSnippetInto(rp4::Rp4Program& base,
                        const rp4::Rp4Program& snippet) {
  for (const auto& h : snippet.headers) {
    for (const auto& existing : base.headers) {
      if (existing.name == h.name) {
        return AlreadyExists("snippet redefines header '" + h.name + "'");
      }
    }
  }
  for (const auto& a : snippet.actions) {
    if (base.FindAction(a.name) != nullptr) {
      return AlreadyExists("snippet redefines action '" + a.name + "'");
    }
  }
  for (const auto& t : snippet.tables) {
    if (base.FindTable(t.name) != nullptr) {
      return AlreadyExists("snippet redefines table '" + t.name + "'");
    }
  }
  for (const auto& r : snippet.registers) {
    for (const auto& existing : base.registers) {
      if (existing.name == r.name) {
        return AlreadyExists("snippet redefines register '" + r.name + "'");
      }
    }
  }
  for (const auto& s : snippet.ingress_stages) {
    if (base.FindStage(s.name) != nullptr) {
      return AlreadyExists("snippet redefines stage '" + s.name + "'");
    }
  }
  for (const auto& h : snippet.headers) base.headers.push_back(h);
  for (const auto& s : snippet.structs) base.structs.push_back(s);
  for (const auto& r : snippet.registers) base.registers.push_back(r);
  for (const auto& a : snippet.actions) base.actions.push_back(a);
  for (const auto& t : snippet.tables) base.tables.push_back(t);
  // Snippet stages join the program; their position comes from the links.
  return OkStatus();
}

}  // namespace

std::string DeviceOp::ToString() const {
  switch (kind) {
    case Kind::kAddHeader:
      return "add_header " + header.name();
    case Kind::kRemoveHeader:
      return "remove_header " + name;
    case Kind::kLinkHeader:
      return util::Format("link_header %s -> %s tag %llu", link.pre.c_str(),
                          link.next.c_str(),
                          static_cast<unsigned long long>(link.tag));
    case Kind::kUnlinkHeader:
      return util::Format("unlink_header %s tag %llu", link.pre.c_str(),
                          static_cast<unsigned long long>(link.tag));
    case Kind::kDeclareMetadata:
      return "declare_metadata " + metadata.name;
    case Kind::kAddAction:
      return "add_action " + action.name;
    case Kind::kRemoveAction:
      return "remove_action " + name;
    case Kind::kCreateRegister:
      return "create_register " + reg.name;
    case Kind::kDestroyRegister:
      return "destroy_register " + name;
    case Kind::kCreateTable:
      return "create_table " + table.spec.name;
    case Kind::kDestroyTable:
      return "destroy_table " + name;
    case Kind::kWriteTemplate: {
      std::string stages;
      for (const auto& p : programs) stages += p.name + " ";
      return util::Format("write_template tsp=%u role=%s stages=[%s]", tsp_id,
                          std::string(TspRoleName(role)).c_str(),
                          stages.c_str());
    }
    case Kind::kClearTsp:
      return util::Format("clear_tsp %u", tsp_id);
  }
  return "?";
}

namespace {

// The in-place function-update fast path: same stages, new logic. The
// layout, pipeline graph, and all stateful contents stay untouched.
Result<UpdatePlan> CompileInPlaceUpdate(const rp4::Rp4Program& base,
                                        const TspLayout& layout,
                                        const UpdateRequest& request) {
  const rp4::Rp4FuncDecl* func = base.FindFunc(request.func_name);
  if (func == nullptr) {
    return NotFound("function '" + request.func_name +
                    "' is not loaded; use `load` for new functions");
  }
  if (!request.snippet.has_value()) {
    return InvalidArgument("update request needs an rP4 snippet");
  }
  const rp4::Rp4Program& snip = *request.snippet;
  std::set<std::string> func_stages(func->stages.begin(), func->stages.end());

  UpdatePlan plan;
  rp4::Rp4Program updated = base;

  // Replace or add actions; replacing emits remove+add device ops.
  for (const auto& a : snip.actions) {
    bool replaced = false;
    for (auto& existing : updated.actions) {
      if (existing.name != a.name) continue;
      if (ActionDefToJson(existing).Dump() == ActionDefToJson(a).Dump()) {
        replaced = true;  // unchanged: no op needed
        break;
      }
      existing = a;
      DeviceOp rm;
      rm.kind = DeviceOp::Kind::kRemoveAction;
      rm.name = a.name;
      plan.ops.push_back(std::move(rm));
      DeviceOp add;
      add.kind = DeviceOp::Kind::kAddAction;
      add.action = a;
      plan.ops.push_back(std::move(add));
      replaced = true;
      break;
    }
    if (!replaced) {
      updated.actions.push_back(a);
      DeviceOp add;
      add.kind = DeviceOp::Kind::kAddAction;
      add.action = a;
      plan.ops.push_back(std::move(add));
    }
  }

  // Tables: same-name tables must be shape-identical (their entries and
  // pool blocks survive the update); new tables are created.
  for (const auto& t : snip.tables) {
    const rp4::Rp4TableDecl* existing = base.FindTable(t.name);
    if (existing == nullptr) {
      updated.tables.push_back(t);
      continue;
    }
    if (existing->key.size() != t.key.size() || existing->size != t.size) {
      return FailedPrecondition(
          "update changes the shape of table '" + t.name +
          "'; remove and reload the function instead");
    }
  }

  // Registers: keep existing (their contents are the point), add new ones.
  for (const auto& r : snip.registers) {
    bool exists = false;
    for (const auto& existing : base.registers) {
      if (existing.name == r.name) exists = true;
    }
    if (!exists) {
      updated.registers.push_back(r);
      DeviceOp op;
      op.kind = DeviceOp::Kind::kCreateRegister;
      op.reg = arch::RegisterDecl{r.name, r.size};
      plan.ops.push_back(std::move(op));
    }
  }

  // Stage bodies: every snippet stage must already belong to the function.
  std::set<std::string> touched;
  auto replace_stage = [&](std::vector<arch::StageProgram>& stages,
                           const arch::StageProgram& next) {
    for (auto& s : stages) {
      if (s.name == next.name) {
        // Preserve the pipeline position; swap the triad.
        s = next;
        return true;
      }
    }
    return false;
  };
  for (const auto& lists :
       {&snip.ingress_stages, &snip.egress_stages}) {
    for (const auto& s : *lists) {
      if (func_stages.count(s.name) == 0) {
        return InvalidArgument(
            "update: stage '" + s.name + "' is not part of function '" +
            request.func_name + "'; use load/remove for structural changes");
      }
      if (!replace_stage(updated.ingress_stages, s) &&
          !replace_stage(updated.egress_stages, s)) {
        return InternalError("function stage '" + s.name +
                             "' missing from the base design");
      }
      touched.insert(s.name);
    }
  }

  IPSA_ASSIGN_OR_RETURN(plan.updated_design, rp4::LowerToDesign(updated));

  // New tables get pool space (after updated_design computes their widths).
  std::set<std::string> base_tables;
  for (const auto& t : base.tables) base_tables.insert(t.name);
  for (const auto& t : plan.updated_design.tables) {
    if (base_tables.count(t.spec.name) > 0) continue;
    DeviceOp op;
    op.kind = DeviceOp::Kind::kCreateTable;
    op.table = t;
    plan.ops.push_back(std::move(op));
  }

  // Rewrite only the TSPs hosting touched stages; the layout is unchanged.
  for (const auto& assign : layout.assignments) {
    bool affected = false;
    for (const auto& name : assign.stage_names) {
      if (touched.count(name) > 0) affected = true;
    }
    if (!affected) continue;
    DeviceOp op;
    op.kind = DeviceOp::Kind::kWriteTemplate;
    op.tsp_id = assign.tsp_id;
    op.role = assign.role;
    for (const auto& name : assign.stage_names) {
      const arch::StageProgram* s = plan.updated_design.FindStage(name);
      if (s == nullptr) return InternalError("missing stage program");
      op.programs.push_back(*s);
    }
    plan.ops.push_back(std::move(op));
  }

  plan.updated_program = std::move(updated);
  plan.updated_layout = layout;
  plan.relocations = 0;
  return plan;
}

}  // namespace

Result<UpdatePlan> CompileUpdate(const rp4::Rp4Program& base,
                                 const TspLayout& layout,
                                 const UpdateRequest& request,
                                 const Rp4bcOptions& options) {
  if (request.update) {
    return CompileInPlaceUpdate(base, layout, request);
  }
  UpdatePlan plan;
  rp4::Rp4Program updated = base;

  // 1. Collect the old linear order and the ingress/egress boundary.
  std::vector<std::string> old_order;
  for (const auto& s : base.ingress_stages) old_order.push_back(s.name);
  size_t egress_boundary = old_order.size();
  for (const auto& s : base.egress_stages) old_order.push_back(s.name);
  std::string egress_entry =
      base.egress_stages.empty() ? "" : base.egress_stages.front().name;

  // 2. New stages from the snippet (load) or deleted stages (remove).
  std::vector<std::string> new_stage_names;
  std::set<std::string> removed_by_request;
  if (request.remove) {
    const rp4::Rp4FuncDecl* func = base.FindFunc(request.func_name);
    if (func == nullptr) {
      return NotFound("function '" + request.func_name + "' is not loaded");
    }
    removed_by_request.insert(func->stages.begin(), func->stages.end());
  } else {
    if (!request.snippet.has_value()) {
      return InvalidArgument("load request needs an rP4 snippet");
    }
    if (base.FindFunc(request.func_name) != nullptr) {
      return AlreadyExists("function '" + request.func_name +
                           "' is already loaded; remove it first "
                           "(function update = remove + load)");
    }
    IPSA_RETURN_IF_ERROR(MergeSnippetInto(updated, *request.snippet));
    for (const auto& s : request.snippet->ingress_stages) {
      updated.ingress_stages.push_back(s);  // temporary; re-split below
      new_stage_names.push_back(s.name);
    }
    for (const auto& s : request.snippet->egress_stages) {
      updated.ingress_stages.push_back(s);
      new_stage_names.push_back(s.name);
    }
  }

  // 3. Build and edit the pipeline graph.
  PipelineGraph graph;
  graph.nodes = old_order;
  for (const auto& n : new_stage_names) graph.nodes.push_back(n);
  for (size_t i = 0; i + 1 < old_order.size(); ++i) {
    graph.edges.insert({old_order[i], old_order[i + 1]});
  }
  for (const auto& [a, b] : request.del_links) {
    graph.edges.erase({a, b});
  }
  for (const auto& [a, b] : request.add_links) {
    if (!graph.HasNode(a) || !graph.HasNode(b)) {
      return NotFound("add_link references unknown stage '" + a + "' or '" +
                      b + "'");
    }
    graph.edges.insert({a, b});
  }
  if (request.remove) {
    // Bridge around each removed stage, then drop its edges.
    for (const auto& r : removed_by_request) {
      std::vector<std::string> preds, succs;
      for (const auto& [from, to] : graph.edges) {
        if (to == r && removed_by_request.count(from) == 0) {
          preds.push_back(from);
        }
        if (from == r && removed_by_request.count(to) == 0) {
          succs.push_back(to);
        }
      }
      for (const auto& p : preds) {
        for (const auto& s : succs) graph.edges.insert({p, s});
      }
      for (auto it = graph.edges.begin(); it != graph.edges.end();) {
        if (it->first == r || it->second == r) {
          it = graph.edges.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  // 4. Linearize. Stages that fell off the graph are deleted.
  std::string entry = base.ingress_entry.empty()
                          ? (old_order.empty() ? "" : old_order.front())
                          : base.ingress_entry;
  if (entry.empty()) return FailedPrecondition("base design has no entry");
  IPSA_ASSIGN_OR_RETURN(std::vector<std::string> new_order,
                        graph.OrderFrom(entry));
  std::set<std::string> kept(new_order.begin(), new_order.end());

  // 5. Split the new order at the egress boundary again.
  size_t new_egress_start = new_order.size();
  if (!egress_entry.empty() && kept.count(egress_entry) > 0) {
    for (size_t i = 0; i < new_order.size(); ++i) {
      if (new_order[i] == egress_entry) {
        new_egress_start = i;
        break;
      }
    }
  } else if (egress_boundary < old_order.size()) {
    // Egress entry itself was deleted; the first surviving old egress stage
    // marks the boundary.
    for (size_t i = 0; i < new_order.size(); ++i) {
      bool was_egress = false;
      for (size_t j = egress_boundary; j < old_order.size(); ++j) {
        if (old_order[j] == new_order[i]) was_egress = true;
      }
      if (was_egress) {
        new_egress_start = i;
        break;
      }
    }
  }

  // Rebuild updated program's stage lists in the new order.
  {
    std::vector<StageProgram> all_stages;
    auto find_stage = [&](const std::string& name) -> StageProgram* {
      for (auto& s : updated.ingress_stages) {
        if (s.name == name) return &s;
      }
      for (auto& s : updated.egress_stages) {
        if (s.name == name) return &s;
      }
      return nullptr;
    };
    // Each ordered name occurs once, so its program moves over; the lists
    // it moves out of are reassigned below.
    for (const auto& name : new_order) {
      StageProgram* s = find_stage(name);
      if (s == nullptr) {
        return InternalError("ordered stage '" + name + "' has no program");
      }
      all_stages.push_back(std::move(*s));
    }
    updated.ingress_stages.assign(
        all_stages.begin(),
        all_stages.begin() + static_cast<std::ptrdiff_t>(new_egress_start));
    updated.egress_stages.assign(
        all_stages.begin() + static_cast<std::ptrdiff_t>(new_egress_start),
        all_stages.end());
    updated.ingress_entry = new_order.empty() ? "" : new_order.front();
    updated.egress_entry = new_egress_start < new_order.size()
                               ? new_order[new_egress_start]
                               : "";
  }

  // Maintain the function registry.
  if (request.remove) {
    updated.funcs.erase(
        std::remove_if(updated.funcs.begin(), updated.funcs.end(),
                       [&](const rp4::Rp4FuncDecl& f) {
                         return f.name == request.func_name;
                       }),
        updated.funcs.end());
  } else {
    rp4::Rp4FuncDecl func;
    func.name = request.func_name;
    func.stages = new_stage_names;
    updated.funcs.push_back(std::move(func));
  }

  IPSA_ASSIGN_OR_RETURN(DesignConfig updated_design,
                        rp4::LowerToDesign(updated));

  // 6. Incremental layout: keep surviving groups on their TSPs when
  // possible; place new stages with the configured optimizer.
  std::map<std::string, uint32_t> old_tsp = StageToTsp(layout);
  std::vector<LayoutGroup> groups;
  std::set<std::string> new_set(new_stage_names.begin(),
                                new_stage_names.end());
  for (size_t i = 0; i < new_order.size(); ++i) {
    const std::string& name = new_order[i];
    TspRole role = i < new_egress_start ? TspRole::kIngress : TspRole::kEgress;
    bool is_new = new_set.count(name) > 0;
    int32_t old_id = is_new ? -1
                            : static_cast<int32_t>(old_tsp.count(name)
                                                       ? old_tsp[name]
                                                       : UINT32_MAX);
    bool merged = false;
    if (!groups.empty() && groups.back().role == role) {
      LayoutGroup& prev = groups.back();
      if (!is_new && prev.old_tsp >= 0 && prev.old_tsp == old_id &&
          prev.stages.size() < options.max_stages_per_tsp) {
        // Stages that already shared a TSP stay together.
        merged = true;
      } else if (is_new && prev.old_tsp == -1 && options.merge_stages &&
                 prev.stages.size() < options.max_stages_per_tsp) {
        // Adjacent new stages merge when independent.
        bool ok = true;
        for (const auto& pname : prev.stages) {
          const StageProgram* ps = updated_design.FindStage(pname);
          const StageProgram* cs = updated_design.FindStage(name);
          if (ps == nullptr || cs == nullptr ||
              !StagesIndependent(updated_design, *ps, *cs)) {
            ok = false;
          }
        }
        merged = ok;
      }
      if (merged) prev.stages.push_back(name);
    }
    if (!merged) {
      LayoutGroup g;
      g.role = role;
      g.old_tsp = old_id;
      g.stages.push_back(name);
      groups.push_back(std::move(g));
    }
  }
  IPSA_ASSIGN_OR_RETURN(
      LayoutResult placed,
      PlaceGroups(groups, options.tsp_count, options.layout_mode));
  plan.layout_work_units = placed.work_units;

  // 7. Allocate pool space for the new tables (greedy, incremental).
  std::set<std::string> old_tables;
  for (const auto& t : base.tables) old_tables.insert(t.name);
  std::vector<ClusterCapacity> caps = ClusterCapacities(options);
  for (const auto& t : updated_design.tables) {
    auto it = layout.table_cluster.find(t.spec.name);
    if (it == layout.table_cluster.end()) continue;
    uint32_t blocks = BlocksForTable(t, options);
    auto& cap = caps[it->second];
    if (t.spec.match_kind == table::MatchKind::kTernary) {
      cap.tcam_blocks = cap.tcam_blocks > blocks ? cap.tcam_blocks - blocks : 0;
    } else {
      cap.sram_blocks = cap.sram_blocks > blocks ? cap.sram_blocks - blocks : 0;
    }
  }
  std::vector<AllocRequest> new_requests;
  for (const auto& t : updated_design.tables) {
    if (old_tables.count(t.spec.name) > 0) continue;
    AllocRequest req;
    req.table = t.spec.name;
    req.kind = t.spec.match_kind == table::MatchKind::kTernary
                   ? mem::BlockKind::kTcam
                   : mem::BlockKind::kSram;
    req.blocks_needed = BlocksForTable(t, options);
    new_requests.push_back(std::move(req));
  }
  AllocPlan new_alloc;
  if (!new_requests.empty()) {
    IPSA_ASSIGN_OR_RETURN(new_alloc,
                          SolveTableAllocation(new_requests, caps,
                                               SolveMode::kGreedy));
  }

  // 8. Emit device operations.
  std::set<std::string> referenced_tables, referenced_actions;
  auto note_refs = [&](const StageProgram& s) {
    for (const auto& rule : s.matcher) {
      if (!rule.table.empty()) referenced_tables.insert(rule.table);
    }
    for (const auto& [tag, a] : s.executor) referenced_actions.insert(a);
    referenced_actions.insert(s.miss_action);
  };
  for (const auto& s : updated.ingress_stages) note_refs(s);
  for (const auto& s : updated.egress_stages) note_refs(s);

  if (!request.remove && request.snippet.has_value()) {
    const rp4::Rp4Program& snip = *request.snippet;
    for (const auto& h : snip.headers) {
      DeviceOp op;
      op.kind = DeviceOp::Kind::kAddHeader;
      std::vector<arch::FieldDef> fields;
      for (const auto& f : h.fields) {
        fields.push_back(arch::FieldDef{f.name, f.width_bits});
      }
      arch::HeaderTypeDef def(h.name, std::move(fields));
      if (h.parser.has_value()) {
        def.SetSelectorField(h.parser->selector_field);
        for (const auto& [tag, next] : h.parser->links) def.SetLink(tag, next);
      }
      if (h.varsize.has_value()) {
        def.SetVarSize(arch::VarSizeRule{h.varsize->len_field, h.varsize->add,
                                         h.varsize->multiplier});
      }
      op.header = std::move(def);
      plan.ops.push_back(std::move(op));
    }
    for (const auto& s : snip.structs) {
      for (const auto& m : s.members) {
        DeviceOp op;
        op.kind = DeviceOp::Kind::kDeclareMetadata;
        op.metadata = arch::MetadataDecl{m.name, m.width_bits};
        plan.ops.push_back(std::move(op));
      }
    }
    for (const auto& r : snip.registers) {
      DeviceOp op;
      op.kind = DeviceOp::Kind::kCreateRegister;
      op.reg = arch::RegisterDecl{r.name, r.size};
      plan.ops.push_back(std::move(op));
    }
    for (const auto& a : snip.actions) {
      DeviceOp op;
      op.kind = DeviceOp::Kind::kAddAction;
      op.action = a;
      plan.ops.push_back(std::move(op));
    }
    for (const auto& t : updated_design.tables) {
      if (old_tables.count(t.spec.name) > 0) continue;
      DeviceOp op;
      op.kind = DeviceOp::Kind::kCreateTable;
      op.table = t;
      plan.ops.push_back(std::move(op));
    }
  }
  for (const auto& l : request.link_headers) {
    DeviceOp op;
    // An empty `next` means "unlink this tag" (controller's unlink_header).
    op.kind = l.next.empty() ? DeviceOp::Kind::kUnlinkHeader
                             : DeviceOp::Kind::kLinkHeader;
    op.link = l;
    plan.ops.push_back(std::move(op));
  }

  // Template writes for every TSP whose hosted stage set changed.
  std::map<uint32_t, std::vector<std::string>> old_by_tsp, new_by_tsp;
  std::map<uint32_t, TspRole> new_roles;
  for (const auto& a : layout.assignments) {
    old_by_tsp[a.tsp_id] = a.stage_names;
  }
  for (const auto& a : placed.assignments) {
    new_by_tsp[a.tsp_id] = a.stage_names;
    new_roles[a.tsp_id] = a.role;
  }
  uint32_t pure_relocations = 0;
  for (const auto& [tsp, stages] : new_by_tsp) {
    auto it = old_by_tsp.find(tsp);
    if (it != old_by_tsp.end() && it->second == stages) continue;  // unchanged
    DeviceOp op;
    op.kind = DeviceOp::Kind::kWriteTemplate;
    op.tsp_id = tsp;
    op.role = new_roles[tsp];
    for (const auto& name : stages) {
      const StageProgram* s = updated_design.FindStage(name);
      if (s == nullptr) return InternalError("missing stage program");
      op.programs.push_back(*s);
    }
    // A rewritten TSP hosting only pre-existing stages is a relocation.
    bool all_old = true;
    for (const auto& name : stages) {
      if (new_set.count(name) > 0) all_old = false;
    }
    if (all_old) ++pure_relocations;
    plan.ops.push_back(std::move(op));
  }
  for (const auto& [tsp, stages] : old_by_tsp) {
    if (new_by_tsp.count(tsp) == 0) {
      DeviceOp op;
      op.kind = DeviceOp::Kind::kClearTsp;
      op.tsp_id = tsp;
      plan.ops.push_back(std::move(op));
    }
  }
  plan.relocations = pure_relocations;

  // Destroy tables/actions/registers that lost their last reference
  // (deleted-stage cleanup; §2.4 "the associated memory blocks are also
  // recycled"). The program was lowered once above, after its stages took
  // their final order; what this step destroys comes out of both.
  std::set<std::string> destroyed_tables, removed_actions;
  for (const auto& t : base.tables) {
    if (referenced_tables.count(t.name) == 0) {
      DeviceOp op;
      op.kind = DeviceOp::Kind::kDestroyTable;
      op.name = t.name;
      plan.ops.push_back(std::move(op));
      destroyed_tables.insert(t.name);
    }
  }
  if (request.remove) {
    for (const auto& a : base.actions) {
      if (referenced_actions.count(a.name) == 0) {
        DeviceOp op;
        op.kind = DeviceOp::Kind::kRemoveAction;
        op.name = a.name;
        plan.ops.push_back(std::move(op));
        removed_actions.insert(a.name);
      }
    }
  }
  auto destroyed = [&](const std::string& name) {
    return destroyed_tables.count(name) > 0;
  };
  std::erase_if(updated.tables, [&](const rp4::Rp4TableDecl& d) {
    return destroyed(d.name);
  });
  std::erase_if(updated_design.tables, [&](const arch::TableDecl& d) {
    return destroyed(d.spec.name);
  });
  auto removed = [&](const ActionDef& d) {
    return removed_actions.count(d.name) > 0;
  };
  std::erase_if(updated.actions, removed);
  std::erase_if(updated_design.actions, removed);
  if (!removed_actions.empty()) {
    // A table's action-data width follows the actions that remain.
    for (size_t i = 0; i < updated.tables.size(); ++i) {
      IPSA_ASSIGN_OR_RETURN(
          updated_design.tables[i].spec.action_data_width_bits,
          rp4::TableActionDataWidth(updated, updated.tables[i]));
    }
  }

  // Final state.
  plan.updated_design = std::move(updated_design);
  plan.updated_program = std::move(updated);
  plan.updated_layout.assignments = placed.assignments;
  plan.updated_layout.table_cluster = layout.table_cluster;
  for (const auto& [t, c] : new_alloc.table_cluster) {
    plan.updated_layout.table_cluster[t] = c;
  }
  return plan;
}

Status ApplyPlanToDevice(const UpdatePlan& plan, ipbm::IpbmSwitch& device) {
  for (const DeviceOp& op : plan.ops) {
    switch (op.kind) {
      case DeviceOp::Kind::kAddHeader:
        IPSA_RETURN_IF_ERROR(device.AddHeaderType(op.header));
        break;
      case DeviceOp::Kind::kRemoveHeader:
        IPSA_RETURN_IF_ERROR(device.RemoveHeaderType(op.name));
        break;
      case DeviceOp::Kind::kLinkHeader:
        IPSA_RETURN_IF_ERROR(
            device.LinkHeader(op.link.pre, op.link.next, op.link.tag));
        break;
      case DeviceOp::Kind::kUnlinkHeader:
        IPSA_RETURN_IF_ERROR(device.UnlinkHeader(op.link.pre, op.link.tag));
        break;
      case DeviceOp::Kind::kDeclareMetadata:
        IPSA_RETURN_IF_ERROR(
            device.DeclareMetadata(op.metadata.name, op.metadata.width_bits));
        break;
      case DeviceOp::Kind::kAddAction:
        IPSA_RETURN_IF_ERROR(device.AddAction(op.action));
        break;
      case DeviceOp::Kind::kRemoveAction:
        IPSA_RETURN_IF_ERROR(device.RemoveAction(op.name));
        break;
      case DeviceOp::Kind::kCreateRegister:
        IPSA_RETURN_IF_ERROR(device.CreateRegister(op.reg.name, op.reg.size));
        break;
      case DeviceOp::Kind::kDestroyRegister:
        IPSA_RETURN_IF_ERROR(device.DestroyRegister(op.name));
        break;
      case DeviceOp::Kind::kCreateTable:
        IPSA_RETURN_IF_ERROR(device.CreateTable(op.table));
        break;
      case DeviceOp::Kind::kDestroyTable:
        IPSA_RETURN_IF_ERROR(device.DestroyTable(op.name));
        break;
      case DeviceOp::Kind::kWriteTemplate:
        IPSA_RETURN_IF_ERROR(
            device.WriteTspTemplate(op.tsp_id, op.role, op.programs));
        break;
      case DeviceOp::Kind::kClearTsp:
        IPSA_RETURN_IF_ERROR(device.ClearTsp(op.tsp_id));
        break;
    }
  }
  return OkStatus();
}

}  // namespace ipsa::compiler
