#include "src/lang/acc_interpreter.h"

#include <cassert>

#include "src/lang/ops.h"

namespace orochi {

namespace {

// One operand of a multivalent instruction, classified once per instruction. Component j
// is handed out by reference:
//  - a univalue (an array with no multivalue inside included) is every component;
//  - a multivalue's component j is items[j];
//  - an array holding multivalue cells is the one kind that is projected
//    (ProjectComponent), into a scratch value that the next call overwrites.
// A lane refers into its operand, which must outlive it and stay unmodified while it is
// read.
class Lane {
 public:
  explicit Lane(const Value& v)
      : v_(&v),
        kind_(v.is_multi() ? Kind::kMulti
              : ContainsMulti(v) ? Kind::kProjected
                                 : Kind::kUniform) {}

  bool uniform() const { return kind_ == Kind::kUniform; }

  const Value& operator[](size_t j) {
    switch (kind_) {
      case Kind::kUniform:
        break;
      case Kind::kMulti:
        assert(j < v_->multi().items.size());
        return v_->multi().items[j];
      case Kind::kProjected:
        scratch_ = ProjectComponent(*v_, j);
        return scratch_;
    }
    return *v_;
  }

 private:
  enum class Kind : uint8_t { kUniform, kMulti, kProjected };

  const Value* v_;
  Kind kind_;
  Value scratch_;
};

bool AllStrings(const std::vector<Value>& items) {
  for (const Value& v : items) {
    if (!v.is_string()) {
      return false;
    }
  }
  return true;
}

std::vector<Lane> LanesOf(const std::vector<Value>& operands) {
  std::vector<Lane> lanes;
  lanes.reserve(operands.size());
  for (const Value& v : operands) {
    lanes.emplace_back(v);
  }
  return lanes;
}

// Splits a pure builtin call into n component calls. Univalue arguments are bound once;
// only the others are rebound per component. Returns false (setting *failure) when a
// component traps (=> fallback).
bool SplitPureCall(const BuiltinInfo& info, const std::vector<Value>& args,
                   std::vector<Lane>& lanes, size_t n, Value* out, std::string* failure) {
  std::vector<Value> results;
  results.reserve(n);
  std::vector<Value> component_args(args.size());
  for (size_t k = 0; k < args.size(); k++) {
    if (lanes[k].uniform()) {
      component_args[k] = args[k];
    }
  }
  for (size_t j = 0; j < n; j++) {
    for (size_t k = 0; k < args.size(); k++) {
      if (!lanes[k].uniform()) {
        component_args[k] = lanes[k][j];
      }
    }
    Result<Value> r = info.fn(component_args);
    if (!r.ok()) {
      *failure = r.error();
      return false;
    }
    results.push_back(std::move(r).value());
  }
  *out = MakeMultiCollapsed(std::move(results));
  return true;
}

}  // namespace

AccInterpreter::AccInterpreter(const Program* program, std::vector<const RequestParams*> params,
                               InterpreterOptions options)
    : program_(program), params_(std::move(params)), options_(options) {
  outputs_.resize(params_.size());
  // These grow inside the re-execution loop; pre-reserving keeps early iterations from
  // reallocating (group re-execution constructs one interpreter per chunk).
  stack_.reserve(64);
  frames_.reserve(8);
  iters_.reserve(8);
  Frame frame;
  frame.chunk = &program_->chunks[0];
  frame.pc = 0;
  frame.slots.resize(static_cast<size_t>(frame.chunk->num_slots));
  frame.stack_base = 0;
  frame.iter_base = 0;
  frames_.push_back(std::move(frame));
}

void AccInterpreter::ProvideValues(std::vector<Value> per_request) {
  assert(pending_value_);
  assert(per_request.size() == params_.size());
  stack_.push_back(MakeMultiCollapsed(std::move(per_request)));
  pending_value_ = false;
}

void AccInterpreter::ProvideUniform(Value v) {
  assert(pending_value_);
  stack_.push_back(std::move(v));
  pending_value_ = false;
}

AccStepResult AccInterpreter::Trap(const std::string& message) {
  dead_ = true;
  AccStepResult r;
  r.kind = AccStepResult::Kind::kError;
  r.error = message;
  return r;
}

AccStepResult AccInterpreter::Diverge(const std::string& message) {
  dead_ = true;
  AccStepResult r;
  r.kind = AccStepResult::Kind::kDiverged;
  r.error = message;
  return r;
}

AccStepResult AccInterpreter::Fallback(const std::string& message) {
  dead_ = true;
  AccStepResult r;
  r.kind = AccStepResult::Kind::kFallback;
  r.error = message;
  return r;
}

AccStepResult AccInterpreter::Run() {
  assert(!pending_value_);
  if (finished_ || dead_) {
    return Trap("acc interpreter cannot resume");
  }
  return Execute();
}

AccStepResult AccInterpreter::Execute() {
  const size_t n = params_.size();
  while (true) {
    Frame& frame = frames_.back();
    const Chunk& chunk = *frame.chunk;
    if (frame.pc >= chunk.code.size()) {
      return Trap("pc out of range");
    }
    const Instr& in = chunk.code[frame.pc];
    frame.pc++;
    instructions_++;
    if (instructions_ > options_.max_instructions) {
      return Trap("instruction limit exceeded");
    }

    switch (in.op) {
      case Op::kLoadConst:
        stack_.push_back(chunk.consts[static_cast<size_t>(in.a)]);
        break;
      case Op::kLoadNull:
        stack_.push_back(Value::Null());
        break;
      case Op::kLoadTrue:
        stack_.push_back(Value::Bool(true));
        break;
      case Op::kLoadFalse:
        stack_.push_back(Value::Bool(false));
        break;
      case Op::kLoadVar:
        stack_.push_back(frame.slots[static_cast<size_t>(in.a)]);
        break;
      case Op::kStoreVar:
        frame.slots[static_cast<size_t>(in.a)] = std::move(stack_.back());
        stack_.pop_back();
        break;
      case Op::kAppendVar: {
        Value suffix = std::move(stack_.back());
        stack_.pop_back();
        Value& slot = frame.slots[static_cast<size_t>(in.a)];
        Lane slot_lane(slot);
        Lane suffixes(suffix);
        if (slot_lane.uniform() && suffixes.uniform()) {
          ScalarAppend(&slot, suffix);
          break;
        }
        // Componentwise, in place on the multivalue the slot owns; a univalue slot (or an
        // array holding multivalue cells) first expands into per-request components.
        multivalent_++;
        // A multivalue is never uniform, so strings that are not all equal stay so after
        // the same bytes are appended to each: the collapse check would only compare them.
        const bool stays_distinct = slot.is_multi() && suffixes.uniform() &&
                                    AllStrings(slot.multi().items);
        if (!slot.is_multi()) {
          std::vector<Value> components;
          components.reserve(n);
          for (size_t j = 0; j < n; j++) {
            components.push_back(slot_lane[j]);
          }
          slot = Value::Multi(std::move(components));
        }
        // The suffix holds its own reference, so a suffix sharing the slot's multivalue
        // (`$b = $a; $a .= $b;`) makes MutableMulti copy before any component changes.
        std::vector<Value>& items = slot.MutableMulti().items;
        for (size_t j = 0; j < n; j++) {
          ScalarAppend(&items[j], suffixes[j]);
        }
        if (!stays_distinct) {
          CollapseIfUniform(&slot);
        }
        break;
      }
      case Op::kDup:
        stack_.push_back(stack_.back());
        break;
      case Op::kPop:
        stack_.pop_back();
        break;

      case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv: case Op::kMod:
      case Op::kConcat: case Op::kEq: case Op::kNe: case Op::kLt: case Op::kLe:
      case Op::kGt: case Op::kGe: {
        Value b = std::move(stack_.back());
        stack_.pop_back();
        Value a = std::move(stack_.back());
        stack_.pop_back();
        Lane lhs(a);
        Lane rhs(b);
        if (lhs.uniform() && rhs.uniform()) {
          Result<Value> r = ScalarBinary(in.op, a, b);
          if (!r.ok()) {
            return Trap(r.error());
          }
          stack_.push_back(std::move(r).value());
          break;
        }
        multivalent_++;
        std::vector<Value> results;
        results.reserve(n);
        for (size_t j = 0; j < n; j++) {
          Result<Value> r = ScalarBinary(in.op, lhs[j], rhs[j]);
          if (!r.ok()) {
            return Fallback("component trap in binary op: " + r.error());
          }
          results.push_back(std::move(r).value());
        }
        stack_.push_back(MakeMultiCollapsed(std::move(results)));
        break;
      }

      case Op::kNot: case Op::kNeg: {
        Value v = std::move(stack_.back());
        stack_.pop_back();
        if (!v.is_multi()) {
          Result<Value> r = ScalarUnary(in.op, v);
          if (!r.ok()) {
            return Trap(r.error());
          }
          stack_.push_back(std::move(r).value());
          break;
        }
        multivalent_++;
        Lane operands(v);
        std::vector<Value> results;
        results.reserve(n);
        for (size_t j = 0; j < n; j++) {
          Result<Value> r = ScalarUnary(in.op, operands[j]);
          if (!r.ok()) {
            return Fallback("component trap in unary op: " + r.error());
          }
          results.push_back(std::move(r).value());
        }
        stack_.push_back(MakeMultiCollapsed(std::move(results)));
        break;
      }

      case Op::kJump:
        frame.pc = static_cast<size_t>(in.a);
        break;

      case Op::kJumpIfFalse:
      case Op::kJumpIfTrue: {
        Value cond = std::move(stack_.back());
        stack_.pop_back();
        bool truthy;
        if (cond.is_multi()) {
          multivalent_++;
          const auto& items = cond.multi().items;
          truthy = items[0].Truthy();
          for (size_t j = 1; j < items.size(); j++) {
            if (items[j].Truthy() != truthy) {
              return Diverge("branch condition differs within control-flow group");
            }
          }
        } else {
          truthy = cond.Truthy();
        }
        if ((in.op == Op::kJumpIfFalse && !truthy) || (in.op == Op::kJumpIfTrue && truthy)) {
          frame.pc = static_cast<size_t>(in.a);
        }
        break;
      }

      case Op::kCall: {
        const Chunk& target = program_->chunks[static_cast<size_t>(in.a)];
        int argc = in.b;
        if (argc != target.num_params) {
          return Trap("wrong number of arguments to " + target.name);
        }
        if (frames_.size() >= 256) {
          return Trap("call stack overflow");
        }
        Frame callee;
        callee.chunk = &target;
        callee.pc = 0;
        callee.slots.resize(static_cast<size_t>(target.num_slots));
        callee.stack_base = stack_.size() - static_cast<size_t>(argc);
        callee.iter_base = iters_.size();
        for (int i = argc - 1; i >= 0; i--) {
          callee.slots[static_cast<size_t>(i)] = std::move(stack_.back());
          stack_.pop_back();
        }
        frames_.push_back(std::move(callee));
        break;
      }

      case Op::kCallBuiltin: {
        const BuiltinInfo& info = BuiltinById(in.a);
        int argc = in.b;
        std::vector<Value> args(static_cast<size_t>(argc));
        for (int i = argc - 1; i >= 0; i--) {
          args[static_cast<size_t>(i)] = std::move(stack_.back());
          stack_.pop_back();
        }
        switch (info.kind) {
          case BuiltinKind::kPure: {
            std::vector<Lane> lanes = LanesOf(args);
            bool any_multi = false;
            for (const Lane& lane : lanes) {
              any_multi = any_multi || !lane.uniform();
            }
            if (!any_multi) {
              Result<Value> r = info.fn(args);
              if (!r.ok()) {
                return Trap(r.error());
              }
              stack_.push_back(std::move(r).value());
              break;
            }
            multivalent_++;
            Value out;
            std::string failure;
            if (!SplitPureCall(info, args, lanes, n, &out, &failure)) {
              return Fallback("component trap in builtin " + std::string(info.name) + ": " +
                              failure);
            }
            stack_.push_back(std::move(out));
            break;
          }
          case BuiltinKind::kInput: {
            // Reads the per-request inputs; collapses when all requests agree.
            bool name_multi = args[0].is_multi();
            if (name_multi) {
              multivalent_++;
            }
            Lane names(args[0]);
            std::vector<Value> results;
            results.reserve(n);
            for (size_t j = 0; j < n; j++) {
              const Value& name = names[j];
              const RequestParams& params = *params_[j];
              auto it = name.is_string() ? params.find(name.as_string())
                                         : params.find(name.ToString());
              results.push_back(it == params.end() ? Value::Null() : Value::Str(it->second));
            }
            stack_.push_back(MakeMultiCollapsed(std::move(results)));
            break;
          }
          case BuiltinKind::kStateOp: {
            const BuiltinIds& ids = WellKnownBuiltins();
            AccStepResult r;
            r.kind = AccStepResult::Kind::kStateOp;
            r.ops.resize(n);
            std::vector<Lane> lanes = LanesOf(args);
            for (size_t j = 0; j < n; j++) {
              StateOpRequest& op = r.ops[j];
              if (in.a == ids.reg_read) {
                op.type = StateOpType::kRegisterRead;
                op.target = lanes[0][j].ToString();
              } else if (in.a == ids.reg_write) {
                op.type = StateOpType::kRegisterWrite;
                op.target = lanes[0][j].ToString();
                op.value = lanes[1][j];
              } else if (in.a == ids.kv_get) {
                op.type = StateOpType::kKvGet;
                op.key = lanes[0][j].ToString();
              } else if (in.a == ids.kv_set) {
                op.type = StateOpType::kKvSet;
                op.key = lanes[0][j].ToString();
                op.value = lanes[1][j];
              } else if (in.a == ids.db_query) {
                op.type = StateOpType::kDbOp;
                op.db_is_txn = false;
                op.sql.push_back(lanes[0][j].ToString());
              } else {  // db_txn
                op.type = StateOpType::kDbOp;
                op.db_is_txn = true;
                const Value& stmts = lanes[0][j];
                if (!stmts.is_array() || stmts.array().size() == 0) {
                  return Fallback("db_txn argument is not a non-empty array");
                }
                for (const auto& [k, v] : stmts.array().entries()) {
                  (void)k;
                  op.sql.push_back(v.ToString());
                }
              }
            }
            pending_value_ = true;
            return r;
          }
          case BuiltinKind::kNondet: {
            AccStepResult r;
            r.kind = AccStepResult::Kind::kNondet;
            r.nondets.resize(n);
            std::vector<Lane> lanes = LanesOf(args);
            for (size_t j = 0; j < n; j++) {
              r.nondets[j].name = info.name;
              r.nondets[j].args.reserve(lanes.size());
              for (Lane& lane : lanes) {
                r.nondets[j].args.push_back(lane[j]);
              }
            }
            pending_value_ = true;
            return r;
          }
        }
        break;
      }

      case Op::kReturn: {
        Value ret = std::move(stack_.back());
        stack_.pop_back();
        Frame done = std::move(frames_.back());
        frames_.pop_back();
        stack_.resize(done.stack_base);
        iters_.resize(done.iter_base);
        if (frames_.empty()) {
          finished_ = true;
          AccStepResult r;
          r.kind = AccStepResult::Kind::kFinished;
          return r;
        }
        stack_.push_back(std::move(ret));
        break;
      }

      case Op::kNewArray:
        stack_.push_back(Value::Array());
        break;

      case Op::kArrayAppend: {
        Value v = std::move(stack_.back());
        stack_.pop_back();
        Value& target = stack_.back();
        if (target.is_multi()) {
          multivalent_++;
          Lane targets(target);
          Lane values(v);
          std::vector<Value> results;
          results.reserve(n);
          for (size_t j = 0; j < n; j++) {
            Value component = targets[j];
            if (!component.is_array()) {
              return Fallback("append to non-array component");
            }
            component.MutableArray().Append(values[j]);
            results.push_back(std::move(component));
          }
          target = MakeMultiCollapsed(std::move(results));
        } else {
          // Univalue array: a multivalue cell is stored as-is (the dedup-friendly case).
          target.MutableArray().Append(std::move(v));
        }
        break;
      }

      case Op::kArrayInsert: {
        Value v = std::move(stack_.back());
        stack_.pop_back();
        Value key = std::move(stack_.back());
        stack_.pop_back();
        Value& target = stack_.back();
        if (target.is_multi() || key.is_multi()) {
          multivalent_++;
          Lane targets(target);
          Lane keys(key);
          Lane values(v);
          std::vector<Value> results;
          results.reserve(n);
          for (size_t j = 0; j < n; j++) {
            Value component = targets[j];
            if (!component.is_array()) {
              return Fallback("insert into non-array component");
            }
            Result<ArrayKey> k = ToArrayKey(keys[j]);
            if (!k.ok()) {
              return Fallback(k.error());
            }
            component.MutableArray().Set(k.value(), values[j]);
            results.push_back(std::move(component));
          }
          target = MakeMultiCollapsed(std::move(results));
        } else {
          Result<ArrayKey> k = ToArrayKey(key);
          if (!k.ok()) {
            return Trap(k.error());
          }
          target.MutableArray().Set(k.value(), std::move(v));
        }
        break;
      }

      case Op::kIndexGet: {
        Value key = std::move(stack_.back());
        stack_.pop_back();
        Value container = std::move(stack_.back());
        stack_.pop_back();
        if (!container.is_multi() && !key.is_multi()) {
          // A univalue array with multivalue cells returns the cell (possibly a multivalue)
          // directly — executed once.
          Result<Value> r = ScalarIndexGet(container, key);
          if (!r.ok()) {
            return Trap(r.error());
          }
          stack_.push_back(std::move(r).value());
          break;
        }
        multivalent_++;
        Lane containers(container);
        Lane keys(key);
        std::vector<Value> results;
        results.reserve(n);
        for (size_t j = 0; j < n; j++) {
          Result<Value> r = ScalarIndexGet(containers[j], keys[j]);
          if (!r.ok()) {
            return Fallback("component trap in index get: " + r.error());
          }
          results.push_back(std::move(r).value());
        }
        stack_.push_back(MakeMultiCollapsed(std::move(results)));
        break;
      }

      case Op::kIndexSetPath: {
        int num_keys = in.b;
        bool append = in.c != 0;
        Value value = std::move(stack_.back());
        stack_.pop_back();
        std::vector<Value> key_values(static_cast<size_t>(num_keys));
        for (int i = num_keys - 1; i >= 0; i--) {
          key_values[static_cast<size_t>(i)] = std::move(stack_.back());
          stack_.pop_back();
        }
        Value& slot = frame.slots[static_cast<size_t>(in.a)];

        bool needs_split = slot.is_multi();
        for (const Value& kv : key_values) {
          if (kv.is_multi()) {
            needs_split = true;
          }
        }
        if (!needs_split) {
          // Direct path unless an intermediate node on the walk is a multivalue.
          std::vector<ArrayKey> keys;
          keys.reserve(key_values.size());
          bool ok = true;
          for (const Value& kv : key_values) {
            Result<ArrayKey> k = ToArrayKey(kv);
            if (!k.ok()) {
              return Trap(k.error());
            }
            keys.push_back(std::move(k).value());
          }
          // Dry walk to detect multivalue intermediates (§4.3: expansion required when the
          // per-request containers are no longer equivalent).
          const Value* node = &slot;
          size_t steps = append ? keys.size() : (keys.empty() ? 0 : keys.size() - 1);
          for (size_t i = 0; i < steps && ok; i++) {
            if (node->is_multi()) {
              needs_split = true;
              break;
            }
            if (!node->is_array()) {
              break;  // Vivification will create arrays; no multis on this path.
            }
            const Value* next = node->array().Find(keys[i]);
            if (next == nullptr) {
              break;
            }
            node = next;
          }
          if (node != nullptr && node->is_multi() && steps > 0) {
            needs_split = true;
          }
          if (!needs_split) {
            Status st = ScalarIndexSetPath(&slot, keys, append, value);
            if (!st.ok()) {
              return Trap(st.error());
            }
            stack_.push_back(std::move(value));
            break;
          }
        }
        // Split path: expand the variable into per-request components and assign
        // componentwise (scalar expansion per §4.3).
        multivalent_++;
        Lane roots(slot);
        std::vector<Lane> key_lanes = LanesOf(key_values);
        Lane values(value);
        std::vector<Value> components;
        components.reserve(n);
        std::vector<ArrayKey> keys(key_values.size());
        for (size_t j = 0; j < n; j++) {
          Value component = roots[j];
          for (size_t i = 0; i < key_lanes.size(); i++) {
            Result<ArrayKey> k = ToArrayKey(key_lanes[i][j]);
            if (!k.ok()) {
              return Fallback(k.error());
            }
            keys[i] = std::move(k).value();
          }
          Status st = ScalarIndexSetPath(&component, keys, append, values[j]);
          if (!st.ok()) {
            return Fallback(st.error());
          }
          components.push_back(std::move(component));
        }
        slot = MakeMultiCollapsed(std::move(components));
        stack_.push_back(std::move(value));
        break;
      }

      case Op::kIterNew: {
        Value subject = std::move(stack_.back());
        stack_.pop_back();
        if (subject.is_multi()) {
          multivalent_++;
          Iter iter;
          iter.is_multi = true;
          iter.pos = 0;
          size_t entry_count = 0;
          Lane subjects(subject);
          for (size_t j = 0; j < n; j++) {
            const Value& component = subjects[j];
            if (!component.is_array()) {
              return Diverge("foreach subject is not an array for every request");
            }
            if (j == 0) {
              entry_count = component.array().size();
            } else if (component.array().size() != entry_count) {
              // Different iteration counts would have produced different control-flow
              // digests; the grouping report is spurious.
              return Diverge("foreach lengths differ within control-flow group");
            }
            iter.arrays.push_back(component.array_ptr());
          }
          iters_.push_back(std::move(iter));
          break;
        }
        if (!subject.is_array()) {
          return Trap("foreach over a non-array value");
        }
        iters_.push_back({false, subject.array_ptr(), {}, 0});
        break;
      }

      case Op::kIterNext: {
        Iter& iter = iters_.back();
        size_t size =
            iter.is_multi ? iter.arrays[0]->entries().size() : iter.array->entries().size();
        if (iter.pos >= size) {
          iters_.pop_back();
          frame.pc = static_cast<size_t>(in.a);
          break;
        }
        if (iter.is_multi) {
          multivalent_++;
          std::vector<Value> keys;
          std::vector<Value> values;
          keys.reserve(n);
          values.reserve(n);
          for (size_t j = 0; j < n; j++) {
            const auto& [k, v] = iter.arrays[j]->entries()[iter.pos];
            keys.push_back(k.is_int() ? Value::Int(k.int_key()) : Value::Str(k.str_key()));
            values.push_back(v);
          }
          if (in.b >= 0) {
            frame.slots[static_cast<size_t>(in.b)] = MakeMultiCollapsed(std::move(keys));
          }
          frame.slots[static_cast<size_t>(in.c)] = MakeMultiCollapsed(std::move(values));
        } else {
          const auto& [k, v] = iter.array->entries()[iter.pos];
          if (in.b >= 0) {
            frame.slots[static_cast<size_t>(in.b)] =
                k.is_int() ? Value::Int(k.int_key()) : Value::Str(k.str_key());
          }
          frame.slots[static_cast<size_t>(in.c)] = v;
        }
        iter.pos++;
        break;
      }

      case Op::kIterDispose:
        iters_.pop_back();
        break;

      case Op::kEcho: {
        Value v = std::move(stack_.back());
        stack_.pop_back();
        Lane components(v);
        if (components.uniform()) {
          for (std::string& out : outputs_) {
            v.AppendTo(&out);
          }
          break;
        }
        multivalent_++;
        for (size_t j = 0; j < n; j++) {
          components[j].AppendTo(&outputs_[j]);
        }
        break;
      }
    }
  }
}

}  // namespace orochi
