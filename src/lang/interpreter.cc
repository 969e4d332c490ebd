#include "src/lang/interpreter.h"

#include <cassert>

#include "src/common/hash.h"
#include "src/lang/ops.h"

namespace orochi {

Interpreter::Interpreter(const Program* program, const RequestParams* params,
                         InterpreterOptions options)
    : program_(program), params_(params), options_(options),
      digest_(FnvHash(program->script_name)) {
  Frame frame;
  frame.chunk = &program_->chunks[0];
  frame.pc = 0;
  frame.slots.resize(static_cast<size_t>(frame.chunk->num_slots));
  frame.stack_base = 0;
  frame.iter_base = 0;
  frames_.push_back(std::move(frame));
}

void Interpreter::ProvideValue(Value v) {
  assert(pending_value_);
  stack_.push_back(std::move(v));
  pending_value_ = false;
}

StepResult Interpreter::Trap(const std::string& message) {
  dead_ = true;
  StepResult r;
  r.kind = StepResult::Kind::kError;
  r.error = message;
  return r;
}

StepResult Interpreter::Run() {
  assert(!pending_value_);
  if (finished_ || dead_) {
    return Trap("interpreter cannot resume");
  }
  return Execute();
}

StepResult Interpreter::Execute() {
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
      case Op::kAppendVar:
        ScalarAppend(&frame.slots[static_cast<size_t>(in.a)], stack_.back());
        stack_.pop_back();
        break;
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
        Result<Value> r = ScalarBinary(in.op, a, b);
        if (!r.ok()) {
          return Trap(r.error());
        }
        stack_.push_back(std::move(r).value());
        break;
      }
      case Op::kNot: case Op::kNeg: {
        Value v = std::move(stack_.back());
        stack_.pop_back();
        Result<Value> r = ScalarUnary(in.op, v);
        if (!r.ok()) {
          return Trap(r.error());
        }
        stack_.push_back(std::move(r).value());
        break;
      }
      case Op::kJump:
        frame.pc = static_cast<size_t>(in.a);
        break;
      case Op::kJumpIfFalse: {
        bool truthy = stack_.back().Truthy();
        stack_.pop_back();
        if (options_.record_digest) {
          digest_ = HashCombine(digest_, (static_cast<uint64_t>(frame.pc) << 1) |
                                             (truthy ? 1u : 0u));
        }
        if (!truthy) {
          frame.pc = static_cast<size_t>(in.a);
        }
        break;
      }
      case Op::kJumpIfTrue: {
        bool truthy = stack_.back().Truthy();
        stack_.pop_back();
        if (options_.record_digest) {
          digest_ = HashCombine(digest_, (static_cast<uint64_t>(frame.pc) << 1) |
                                             (truthy ? 1u : 0u));
        }
        if (truthy) {
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
            Result<Value> r = info.fn(args);
            if (!r.ok()) {
              return Trap(r.error());
            }
            stack_.push_back(std::move(r).value());
            break;
          }
          case BuiltinKind::kInput: {
            std::string name = args[0].ToString();
            auto it = params_->find(name);
            stack_.push_back(it == params_->end() ? Value::Null() : Value::Str(it->second));
            break;
          }
          case BuiltinKind::kStateOp: {
            const BuiltinIds& ids = WellKnownBuiltins();
            StepResult r;
            r.kind = StepResult::Kind::kStateOp;
            StateOpRequest& op = r.op;
            if (in.a == ids.reg_read) {
              op.type = StateOpType::kRegisterRead;
              op.target = args[0].ToString();
            } else if (in.a == ids.reg_write) {
              op.type = StateOpType::kRegisterWrite;
              op.target = args[0].ToString();
              op.value = args[1];
            } else if (in.a == ids.kv_get) {
              op.type = StateOpType::kKvGet;
              op.key = args[0].ToString();
            } else if (in.a == ids.kv_set) {
              op.type = StateOpType::kKvSet;
              op.key = args[0].ToString();
              op.value = args[1];
            } else if (in.a == ids.db_query) {
              op.type = StateOpType::kDbOp;
              op.db_is_txn = false;
              op.sql.push_back(args[0].ToString());
            } else {  // db_txn
              op.type = StateOpType::kDbOp;
              op.db_is_txn = true;
              if (!args[0].is_array() || args[0].array().size() == 0) {
                return Trap("db_txn: argument must be a non-empty array of statements");
              }
              for (const auto& [k, v] : args[0].array().entries()) {
                (void)k;
                op.sql.push_back(v.ToString());
              }
            }
            pending_value_ = true;
            return r;
          }
          case BuiltinKind::kNondet: {
            StepResult r;
            r.kind = StepResult::Kind::kNondet;
            r.nondet.name = info.name;
            r.nondet.args = std::move(args);
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
          StepResult r;
          r.kind = StepResult::Kind::kFinished;
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
        stack_.back().MutableArray().Append(std::move(v));
        break;
      }
      case Op::kArrayInsert: {
        Value v = std::move(stack_.back());
        stack_.pop_back();
        Value key = std::move(stack_.back());
        stack_.pop_back();
        Result<ArrayKey> k = ToArrayKey(key);
        if (!k.ok()) {
          return Trap(k.error());
        }
        stack_.back().MutableArray().Set(k.value(), std::move(v));
        break;
      }
      case Op::kIndexGet: {
        Value key = std::move(stack_.back());
        stack_.pop_back();
        Value container = std::move(stack_.back());
        stack_.pop_back();
        Result<Value> r = ScalarIndexGet(container, key);
        if (!r.ok()) {
          return Trap(r.error());
        }
        stack_.push_back(std::move(r).value());
        break;
      }
      case Op::kIndexSetPath: {
        int num_keys = in.b;
        bool append = in.c != 0;
        Value value = std::move(stack_.back());
        stack_.pop_back();
        std::vector<ArrayKey> keys(static_cast<size_t>(num_keys));
        for (int i = num_keys - 1; i >= 0; i--) {
          Result<ArrayKey> k = ToArrayKey(stack_.back());
          stack_.pop_back();
          if (!k.ok()) {
            return Trap(k.error());
          }
          keys[static_cast<size_t>(i)] = std::move(k).value();
        }
        Status st = ScalarIndexSetPath(&frame.slots[static_cast<size_t>(in.a)], keys, append,
                                       value);
        if (!st.ok()) {
          return Trap(st.error());
        }
        stack_.push_back(std::move(value));
        break;
      }
      case Op::kIterNew: {
        Value subject = std::move(stack_.back());
        stack_.pop_back();
        if (!subject.is_array()) {
          return Trap("foreach over a non-array value");
        }
        iters_.push_back({subject.array_ptr(), 0});
        break;
      }
      case Op::kIterNext: {
        Iter& iter = iters_.back();
        bool has_more = iter.pos < iter.array->entries().size();
        if (options_.record_digest) {
          digest_ = HashCombine(digest_, (static_cast<uint64_t>(frame.pc) << 1) |
                                             (has_more ? 1u : 0u));
        }
        if (!has_more) {
          iters_.pop_back();
          frame.pc = static_cast<size_t>(in.a);
          break;
        }
        const auto& [k, v] = iter.array->entries()[iter.pos];
        iter.pos++;
        if (in.b >= 0) {
          frame.slots[static_cast<size_t>(in.b)] =
              k.is_int() ? Value::Int(k.int_key()) : Value::Str(k.str_key());
        }
        frame.slots[static_cast<size_t>(in.c)] = v;
        break;
      }
      case Op::kIterDispose:
        iters_.pop_back();
        break;
      case Op::kEcho:
        stack_.back().AppendTo(&output_);
        stack_.pop_back();
        break;
    }
  }
}

}  // namespace orochi
