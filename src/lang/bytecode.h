// Bytecode representation for compiled wscript programs.
//
// A Program is the unit of deployment: one script (endpoint) compiles to a Program whose
// chunk 0 is the top-level body and whose remaining chunks are user-defined functions.
#ifndef SRC_LANG_BYTECODE_H_
#define SRC_LANG_BYTECODE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/lang/value.h"

namespace orochi {

enum class Op : uint8_t {
  kLoadConst,     // a = constant index
  kLoadNull,
  kLoadTrue,
  kLoadFalse,
  kLoadVar,       // a = slot
  kStoreVar,      // a = slot (pops)
  kAppendVar,     // a = slot (pops suffix; slot = slot . suffix, in place when owned)
  kDup,
  kPop,
  kAdd, kSub, kMul, kDiv, kMod, kConcat,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kNot, kNeg,
  kJump,          // a = target pc
  kJumpIfFalse,   // a = target pc (pops condition; branch direction feeds the digest)
  kJumpIfTrue,    // a = target pc
  kCall,          // a = chunk index, b = argc
  kCallBuiltin,   // a = builtin id, b = argc
  kReturn,        // pops return value
  kNewArray,
  kArrayAppend,   // pops value; array below it stays on the stack
  kArrayInsert,   // pops value, key; array below them stays
  kIndexGet,      // pops key, container; pushes element (null when absent)
  kIndexSetPath,  // a = var slot, b = # keys on stack, c = 1 when the path ends in append []
                  // stack: [k1..kb, value]; pushes the assigned value back
  kIterNew,       // pops array, pushes an iterator on the iterator stack
  kIterNext,      // a = loop-exit target, b = key slot (-1 none), c = value slot
  kIterDispose,   // pops the iterator stack (emitted by `break` inside foreach)
  kEcho,          // pops; appends ToString to the request output
};

struct Instr {
  Op op;
  int32_t a = 0;
  int32_t b = 0;
  int32_t c = 0;
};

struct Chunk {
  std::string name;  // "<main>" or the function name.
  int num_params = 0;
  int num_slots = 0;
  std::vector<Instr> code;
  std::vector<Value> consts;
};

struct Program {
  std::string script_name;  // Endpoint name, e.g. "/wiki/view".
  std::vector<Chunk> chunks;  // chunks[0] is the top-level body.
  std::unordered_map<std::string, int> function_index;

  size_t TotalInstructions() const {
    size_t n = 0;
    for (const Chunk& c : chunks) {
      n += c.code.size();
    }
    return n;
  }
};

const char* OpName(Op op);

// Human-readable disassembly (debugging aid, exercised by tests).
std::string Disassemble(const Program& program);

}  // namespace orochi

#endif  // SRC_LANG_BYTECODE_H_
