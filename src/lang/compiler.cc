#include "src/lang/compiler.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/lang/builtins.h"
#include "src/lang/parser.h"

namespace orochi {

namespace {

constexpr int kNoSlot = -1;

// True if `e` reads or writes the variable `name` anywhere inside it.
bool MentionsVar(const Expr& e, const std::string& name) {
  if ((e.kind == ExprKind::kVar || e.kind == ExprKind::kAssign ||
       e.kind == ExprKind::kIncDec) &&
      e.str_val == name) {
    return true;
  }
  for (const Expr* child : {e.a.get(), e.b.get(), e.c.get()}) {
    if (child != nullptr && MentionsVar(*child, name)) {
      return true;
    }
  }
  for (const std::vector<ExprPtr>* children : {&e.list, &e.keys}) {
    for (const ExprPtr& child : *children) {
      if (child != nullptr && MentionsVar(*child, name)) {
        return true;
      }
    }
  }
  return false;
}

// The suffixes e1..ek when the right-hand side of `$name = rhs` has the shape
// `$name . e1 . … . ek` and no ei mentions $name; empty otherwise. Appending them one by
// one in place then computes the same string in the same order as the concatenation.
std::vector<const Expr*> SelfConcatSuffixes(const Expr& rhs, const std::string& name) {
  std::vector<const Expr*> suffixes;
  const Expr* node = &rhs;
  while (node->kind == ExprKind::kBinary && node->bin_op == BinOp::kConcat) {
    suffixes.push_back(node->b.get());
    node = node->a.get();
  }
  if (node->kind != ExprKind::kVar || node->str_val != name) {
    return {};
  }
  for (const Expr* suffix : suffixes) {
    if (MentionsVar(*suffix, name)) {
      return {};
    }
  }
  std::reverse(suffixes.begin(), suffixes.end());
  return suffixes;
}

// Per-chunk compilation state: slot allocation, loop patch lists.
class ChunkCompiler {
 public:
  ChunkCompiler(Chunk* chunk, const std::unordered_map<std::string, int>* functions)
      : chunk_(chunk), functions_(functions) {}

  Status CompileBody(const std::vector<StmtPtr>& stmts) {
    for (const StmtPtr& s : stmts) {
      if (Status st = CompileStmt(*s); !st.ok()) {
        return st;
      }
    }
    // Implicit `return null` at the end of every chunk.
    Emit(Op::kLoadNull);
    Emit(Op::kReturn);
    chunk_->num_slots = static_cast<int>(slots_.size());
    return Status::Ok();
  }

  int SlotFor(const std::string& name) {
    auto it = slots_.find(name);
    if (it != slots_.end()) {
      return it->second;
    }
    int slot = static_cast<int>(slots_.size());
    slots_.emplace(name, slot);
    return slot;
  }

 private:
  struct LoopCtx {
    bool is_foreach;
    int continue_target;                  // pc to jump to on continue; -1 = not known yet.
    std::vector<size_t> break_patches;    // kJump instructions to patch to loop end.
    std::vector<size_t> continue_patches; // kJump instructions pending a continue target.
  };

  Status Error(int line, const std::string& msg) {
    return Status::Error("compile error at line " + std::to_string(line) + ": " + msg);
  }

  size_t Emit(Op op, int32_t a = 0, int32_t b = 0, int32_t c = 0) {
    chunk_->code.push_back({op, a, b, c});
    return chunk_->code.size() - 1;
  }

  int AddConst(Value v) {
    chunk_->consts.push_back(std::move(v));
    return static_cast<int>(chunk_->consts.size() - 1);
  }

  void PatchTarget(size_t instr, size_t target) {
    chunk_->code[instr].a = static_cast<int32_t>(target);
  }

  size_t Here() const { return chunk_->code.size(); }

  Status CompileStmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kExpr: {
        if (Status st = CompileExpr(*s.expr); !st.ok()) {
          return st;
        }
        Emit(Op::kPop);
        return Status::Ok();
      }
      case StmtKind::kEcho: {
        for (const ExprPtr& e : s.echoes) {
          if (Status st = CompileExpr(*e); !st.ok()) {
            return st;
          }
          Emit(Op::kEcho);
        }
        return Status::Ok();
      }
      case StmtKind::kBlock: {
        for (const StmtPtr& child : s.block) {
          if (Status st = CompileStmt(*child); !st.ok()) {
            return st;
          }
        }
        return Status::Ok();
      }
      case StmtKind::kIf: {
        if (Status st = CompileExpr(*s.expr); !st.ok()) {
          return st;
        }
        size_t jf = Emit(Op::kJumpIfFalse);
        if (Status st = CompileStmt(*s.body); !st.ok()) {
          return st;
        }
        if (s.else_body) {
          size_t jend = Emit(Op::kJump);
          PatchTarget(jf, Here());
          if (Status st = CompileStmt(*s.else_body); !st.ok()) {
            return st;
          }
          PatchTarget(jend, Here());
        } else {
          PatchTarget(jf, Here());
        }
        return Status::Ok();
      }
      case StmtKind::kWhile: {
        size_t start = Here();
        if (Status st = CompileExpr(*s.expr); !st.ok()) {
          return st;
        }
        size_t jf = Emit(Op::kJumpIfFalse);
        loops_.push_back({false, static_cast<int>(start), {}, {}});
        if (Status st = CompileStmt(*s.body); !st.ok()) {
          return st;
        }
        Emit(Op::kJump, static_cast<int32_t>(start));
        PatchTarget(jf, Here());
        FinishLoop();
        return Status::Ok();
      }
      case StmtKind::kFor: {
        if (s.init) {
          if (Status st = CompileExpr(*s.init); !st.ok()) {
            return st;
          }
          Emit(Op::kPop);
        }
        size_t cond_pc = Here();
        size_t jf = SIZE_MAX;
        if (s.expr) {
          if (Status st = CompileExpr(*s.expr); !st.ok()) {
            return st;
          }
          jf = Emit(Op::kJumpIfFalse);
        }
        // `continue` must jump to the step code, whose pc is unknown until after the body;
        // such jumps are collected in the loop context and patched below.
        loops_.push_back({false, /*continue_target=*/-1, {}, {}});
        size_t loop_index = loops_.size() - 1;
        if (Status st = CompileStmt(*s.body); !st.ok()) {
          return st;
        }
        size_t step_pc = Here();
        for (size_t instr : loops_[loop_index].continue_patches) {
          PatchTarget(instr, step_pc);
        }
        if (s.step) {
          if (Status st = CompileExpr(*s.step); !st.ok()) {
            return st;
          }
          Emit(Op::kPop);
        }
        Emit(Op::kJump, static_cast<int32_t>(cond_pc));
        if (jf != SIZE_MAX) {
          PatchTarget(jf, Here());
        }
        FinishLoop();
        return Status::Ok();
      }
      case StmtKind::kForeach: {
        if (Status st = CompileExpr(*s.expr); !st.ok()) {
          return st;
        }
        Emit(Op::kIterNew);
        size_t next_pc = Here();
        int key_slot = s.key_var.empty() ? kNoSlot : SlotFor(s.key_var);
        int val_slot = SlotFor(s.value_var);
        size_t iter_next = Emit(Op::kIterNext, 0, key_slot, val_slot);
        loops_.push_back({true, static_cast<int>(next_pc), {}, {}});
        if (Status st = CompileStmt(*s.body); !st.ok()) {
          return st;
        }
        Emit(Op::kJump, static_cast<int32_t>(next_pc));
        PatchTarget(iter_next, Here());
        FinishLoop();
        return Status::Ok();
      }
      case StmtKind::kReturn: {
        if (s.expr) {
          if (Status st = CompileExpr(*s.expr); !st.ok()) {
            return st;
          }
        } else {
          Emit(Op::kLoadNull);
        }
        // Returning from inside foreach loops leaves iterators on the iterator stack; the
        // interpreter unwinds them with the frame.
        Emit(Op::kReturn);
        return Status::Ok();
      }
      case StmtKind::kBreak: {
        if (loops_.empty()) {
          return Error(s.line, "break outside loop");
        }
        if (loops_.back().is_foreach) {
          Emit(Op::kIterDispose);
        }
        loops_.back().break_patches.push_back(Emit(Op::kJump));
        return Status::Ok();
      }
      case StmtKind::kContinue: {
        if (loops_.empty()) {
          return Error(s.line, "continue outside loop");
        }
        if (loops_.back().continue_target < 0) {
          loops_.back().continue_patches.push_back(Emit(Op::kJump));
        } else {
          Emit(Op::kJump, loops_.back().continue_target);
        }
        return Status::Ok();
      }
    }
    return Status::Error("internal: unknown statement kind");
  }

  void FinishLoop() {
    for (size_t instr : loops_.back().break_patches) {
      PatchTarget(instr, Here());
    }
    loops_.pop_back();
  }

  Status CompileExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNullLit:
        Emit(Op::kLoadNull);
        return Status::Ok();
      case ExprKind::kBoolLit:
        Emit(e.bool_val ? Op::kLoadTrue : Op::kLoadFalse);
        return Status::Ok();
      case ExprKind::kIntLit:
        Emit(Op::kLoadConst, AddConst(Value::Int(e.int_val)));
        return Status::Ok();
      case ExprKind::kFloatLit:
        Emit(Op::kLoadConst, AddConst(Value::Float(e.float_val)));
        return Status::Ok();
      case ExprKind::kStringLit:
        Emit(Op::kLoadConst, AddConst(Value::Str(e.str_val)));
        return Status::Ok();
      case ExprKind::kVar:
        Emit(Op::kLoadVar, SlotFor(e.str_val));
        return Status::Ok();
      case ExprKind::kBinary: {
        if (Status st = CompileExpr(*e.a); !st.ok()) {
          return st;
        }
        if (Status st = CompileExpr(*e.b); !st.ok()) {
          return st;
        }
        switch (e.bin_op) {
          case BinOp::kAdd: Emit(Op::kAdd); break;
          case BinOp::kSub: Emit(Op::kSub); break;
          case BinOp::kMul: Emit(Op::kMul); break;
          case BinOp::kDiv: Emit(Op::kDiv); break;
          case BinOp::kMod: Emit(Op::kMod); break;
          case BinOp::kConcat: Emit(Op::kConcat); break;
          case BinOp::kEq: Emit(Op::kEq); break;
          case BinOp::kNe: Emit(Op::kNe); break;
          case BinOp::kLt: Emit(Op::kLt); break;
          case BinOp::kLe: Emit(Op::kLe); break;
          case BinOp::kGt: Emit(Op::kGt); break;
          case BinOp::kGe: Emit(Op::kGe); break;
        }
        return Status::Ok();
      }
      case ExprKind::kUnary: {
        if (Status st = CompileExpr(*e.a); !st.ok()) {
          return st;
        }
        Emit(e.un_op == UnOp::kNot ? Op::kNot : Op::kNeg);
        return Status::Ok();
      }
      case ExprKind::kLogicalAnd: {
        if (Status st = CompileExpr(*e.a); !st.ok()) {
          return st;
        }
        size_t jf1 = Emit(Op::kJumpIfFalse);
        if (Status st = CompileExpr(*e.b); !st.ok()) {
          return st;
        }
        size_t jf2 = Emit(Op::kJumpIfFalse);
        Emit(Op::kLoadTrue);
        size_t jend = Emit(Op::kJump);
        PatchTarget(jf1, Here());
        PatchTarget(jf2, Here());
        Emit(Op::kLoadFalse);
        PatchTarget(jend, Here());
        return Status::Ok();
      }
      case ExprKind::kLogicalOr: {
        if (Status st = CompileExpr(*e.a); !st.ok()) {
          return st;
        }
        size_t jt1 = Emit(Op::kJumpIfTrue);
        if (Status st = CompileExpr(*e.b); !st.ok()) {
          return st;
        }
        size_t jt2 = Emit(Op::kJumpIfTrue);
        Emit(Op::kLoadFalse);
        size_t jend = Emit(Op::kJump);
        PatchTarget(jt1, Here());
        PatchTarget(jt2, Here());
        Emit(Op::kLoadTrue);
        PatchTarget(jend, Here());
        return Status::Ok();
      }
      case ExprKind::kTernary: {
        if (Status st = CompileExpr(*e.a); !st.ok()) {
          return st;
        }
        size_t jf = Emit(Op::kJumpIfFalse);
        if (Status st = CompileExpr(*e.b); !st.ok()) {
          return st;
        }
        size_t jend = Emit(Op::kJump);
        PatchTarget(jf, Here());
        if (Status st = CompileExpr(*e.c); !st.ok()) {
          return st;
        }
        PatchTarget(jend, Here());
        return Status::Ok();
      }
      case ExprKind::kAssign: {
        int slot = SlotFor(e.str_val);
        if (e.list.empty()) {
          // `$v .= e` and `$v = $v . e1 . … . ek` append in place when the suffixes leave
          // $v alone (otherwise loading $v first, as below, is observable).
          std::vector<const Expr*> suffixes;
          if (e.assign_op == AssignOp::kConcatAssign && !MentionsVar(*e.b, e.str_val)) {
            suffixes.push_back(e.b.get());
          } else if (e.assign_op == AssignOp::kPlain) {
            suffixes = SelfConcatSuffixes(*e.b, e.str_val);
          }
          if (!suffixes.empty()) {
            for (const Expr* suffix : suffixes) {
              if (Status st = CompileExpr(*suffix); !st.ok()) {
                return st;
              }
              Emit(Op::kAppendVar, slot);
            }
            Emit(Op::kLoadVar, slot);
            return Status::Ok();
          }
          // Plain variable assignment, possibly compound.
          if (e.assign_op != AssignOp::kPlain) {
            Emit(Op::kLoadVar, slot);
          }
          if (Status st = CompileExpr(*e.b); !st.ok()) {
            return st;
          }
          switch (e.assign_op) {
            case AssignOp::kPlain: break;
            case AssignOp::kAddAssign: Emit(Op::kAdd); break;
            case AssignOp::kSubAssign: Emit(Op::kSub); break;
            case AssignOp::kConcatAssign: Emit(Op::kConcat); break;
          }
          Emit(Op::kDup);
          Emit(Op::kStoreVar, slot);
          return Status::Ok();
        }
        if (e.assign_op != AssignOp::kPlain) {
          return Error(e.line, "compound assignment to array elements is not supported; "
                               "use `$a[k] = $a[k] + v`");
        }
        // Append `[]` is only supported as the final path element.
        int num_keys = 0;
        bool append = false;
        for (size_t i = 0; i < e.list.size(); i++) {
          if (e.list[i] == nullptr) {
            if (i + 1 != e.list.size()) {
              return Error(e.line, "append [] must be the last index");
            }
            append = true;
          } else {
            if (Status st = CompileExpr(*e.list[i]); !st.ok()) {
              return st;
            }
            num_keys++;
          }
        }
        if (Status st = CompileExpr(*e.b); !st.ok()) {
          return st;
        }
        Emit(Op::kIndexSetPath, slot, num_keys, append ? 1 : 0);
        return Status::Ok();
      }
      case ExprKind::kIncDec: {
        int slot = SlotFor(e.str_val);
        Emit(Op::kLoadVar, slot);
        if (!e.is_prefix) {
          Emit(Op::kDup);  // Old value stays as the expression result.
        }
        Emit(Op::kLoadConst, AddConst(Value::Int(1)));
        Emit(e.is_increment ? Op::kAdd : Op::kSub);
        if (e.is_prefix) {
          Emit(Op::kDup);  // New value is the expression result.
        }
        Emit(Op::kStoreVar, slot);
        return Status::Ok();
      }
      case ExprKind::kCall: {
        // User functions shadow builtins of the same name.
        auto it = functions_->find(e.str_val);
        if (it != functions_->end()) {
          for (const ExprPtr& arg : e.list) {
            if (Status st = CompileExpr(*arg); !st.ok()) {
              return st;
            }
          }
          Emit(Op::kCall, it->second, static_cast<int32_t>(e.list.size()));
          return Status::Ok();
        }
        int builtin = BuiltinIdByName(e.str_val);
        if (builtin < 0) {
          return Error(e.line, "unknown function '" + e.str_val + "'");
        }
        const BuiltinInfo& info = BuiltinById(builtin);
        int argc = static_cast<int>(e.list.size());
        if (argc < info.min_args || (info.max_args >= 0 && argc > info.max_args)) {
          return Error(e.line, "wrong number of arguments to '" + e.str_val + "'");
        }
        for (const ExprPtr& arg : e.list) {
          if (Status st = CompileExpr(*arg); !st.ok()) {
            return st;
          }
        }
        Emit(Op::kCallBuiltin, builtin, argc);
        return Status::Ok();
      }
      case ExprKind::kArrayLit: {
        Emit(Op::kNewArray);
        for (size_t i = 0; i < e.list.size(); i++) {
          if (e.keys[i]) {
            if (Status st = CompileExpr(*e.keys[i]); !st.ok()) {
              return st;
            }
            if (Status st = CompileExpr(*e.list[i]); !st.ok()) {
              return st;
            }
            Emit(Op::kArrayInsert);
          } else {
            if (Status st = CompileExpr(*e.list[i]); !st.ok()) {
              return st;
            }
            Emit(Op::kArrayAppend);
          }
        }
        return Status::Ok();
      }
      case ExprKind::kIndex: {
        if (Status st = CompileExpr(*e.a); !st.ok()) {
          return st;
        }
        if (Status st = CompileExpr(*e.b); !st.ok()) {
          return st;
        }
        Emit(Op::kIndexGet);
        return Status::Ok();
      }
    }
    return Status::Error("internal: unknown expression kind");
  }

  Chunk* chunk_;
  const std::unordered_map<std::string, int>* functions_;
  std::unordered_map<std::string, int> slots_;
  std::vector<LoopCtx> loops_;
};

}  // namespace

Result<Program> CompileScript(const ScriptAst& ast, const std::string& script_name) {
  Program prog;
  prog.script_name = script_name;

  // Chunk 0 = top level; then one chunk per function, indexed up front so calls can be
  // resolved regardless of declaration order.
  prog.chunks.emplace_back();
  prog.chunks[0].name = "<main>";
  for (const FunctionDecl& fn : ast.functions) {
    if (prog.function_index.count(fn.name) > 0) {
      return Result<Program>::Error("compile error: duplicate function '" + fn.name + "'");
    }
    prog.function_index[fn.name] = static_cast<int>(prog.chunks.size());
    prog.chunks.emplace_back();
    prog.chunks.back().name = fn.name;
    prog.chunks.back().num_params = static_cast<int>(fn.params.size());
  }

  {
    ChunkCompiler cc(&prog.chunks[0], &prog.function_index);
    if (Status st = cc.CompileBody(ast.top_level); !st.ok()) {
      return st;
    }
  }
  for (const FunctionDecl& fn : ast.functions) {
    Chunk* chunk = &prog.chunks[static_cast<size_t>(prog.function_index[fn.name])];
    ChunkCompiler cc(chunk, &prog.function_index);
    // Parameters occupy the first slots, in order.
    for (const std::string& p : fn.params) {
      cc.SlotFor(p);
    }
    if (Status st = cc.CompileBody(fn.body); !st.ok()) {
      return st;
    }
  }
  return prog;
}

Result<Program> CompileSource(const std::string& source, const std::string& script_name) {
  Result<ScriptAst> ast = ParseScript(source);
  if (!ast.ok()) {
    return ast.status();
  }
  return CompileScript(ast.value(), script_name);
}

}  // namespace orochi
