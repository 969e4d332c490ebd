#include "src/lang/bytecode.h"

namespace orochi {

const char* OpName(Op op) {
  switch (op) {
    case Op::kLoadConst: return "LoadConst";
    case Op::kLoadNull: return "LoadNull";
    case Op::kLoadTrue: return "LoadTrue";
    case Op::kLoadFalse: return "LoadFalse";
    case Op::kLoadVar: return "LoadVar";
    case Op::kStoreVar: return "StoreVar";
    case Op::kAppendVar: return "AppendVar";
    case Op::kDup: return "Dup";
    case Op::kPop: return "Pop";
    case Op::kAdd: return "Add";
    case Op::kSub: return "Sub";
    case Op::kMul: return "Mul";
    case Op::kDiv: return "Div";
    case Op::kMod: return "Mod";
    case Op::kConcat: return "Concat";
    case Op::kEq: return "Eq";
    case Op::kNe: return "Ne";
    case Op::kLt: return "Lt";
    case Op::kLe: return "Le";
    case Op::kGt: return "Gt";
    case Op::kGe: return "Ge";
    case Op::kNot: return "Not";
    case Op::kNeg: return "Neg";
    case Op::kJump: return "Jump";
    case Op::kJumpIfFalse: return "JumpIfFalse";
    case Op::kJumpIfTrue: return "JumpIfTrue";
    case Op::kCall: return "Call";
    case Op::kCallBuiltin: return "CallBuiltin";
    case Op::kReturn: return "Return";
    case Op::kNewArray: return "NewArray";
    case Op::kArrayAppend: return "ArrayAppend";
    case Op::kArrayInsert: return "ArrayInsert";
    case Op::kIndexGet: return "IndexGet";
    case Op::kIndexSetPath: return "IndexSetPath";
    case Op::kIterNew: return "IterNew";
    case Op::kIterNext: return "IterNext";
    case Op::kIterDispose: return "IterDispose";
    case Op::kEcho: return "Echo";
  }
  return "?";
}

std::string Disassemble(const Program& program) {
  std::string out;
  for (const Chunk& chunk : program.chunks) {
    out += "== " + chunk.name + " (params=" + std::to_string(chunk.num_params) +
           ", slots=" + std::to_string(chunk.num_slots) + ") ==\n";
    for (size_t pc = 0; pc < chunk.code.size(); pc++) {
      const Instr& in = chunk.code[pc];
      out += std::to_string(pc) + "\t" + OpName(in.op);
      out += " " + std::to_string(in.a) + " " + std::to_string(in.b) + " " +
             std::to_string(in.c);
      if (in.op == Op::kLoadConst && static_cast<size_t>(in.a) < chunk.consts.size()) {
        out += "\t; " + chunk.consts[static_cast<size_t>(in.a)].ToString();
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace orochi
