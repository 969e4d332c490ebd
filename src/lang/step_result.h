// The yield interface between a running wscript interpreter and its driver.
//
// Interpreters are resumable: Run() executes until the program finishes, traps, or reaches
// an instruction whose result must come from outside the execution context — a shared-object
// operation (paper §3.2) or a non-deterministic builtin (§4.6). The driver (the online
// server, the audit-time re-executor, or a manually scheduled executor) performs or
// simulates the operation and resumes the interpreter with the result value.
#ifndef SRC_LANG_STEP_RESULT_H_
#define SRC_LANG_STEP_RESULT_H_

#include <string>
#include <vector>

#include "src/lang/value.h"

namespace orochi {

// Shared-object operation types (paper Figure 12's optype).
enum class StateOpType : uint8_t {
  kRegisterRead,
  kRegisterWrite,
  kKvGet,
  kKvSet,
  kDbOp,
};

// A state operation as produced by program logic. `target` identifies the object within its
// kind: the register name for register ops; empty for the (single) KV store and database.
struct StateOpRequest {
  StateOpType type;
  std::string target;            // Register name.
  std::string key;               // KV key.
  Value value;                   // Register/KV write payload.
  std::vector<std::string> sql;  // DbOp statements.
  bool db_is_txn = false;        // True when issued via db_txn (affects the result shape).
};

// A non-deterministic builtin invocation (time, microtime, rand).
struct NondetRequest {
  std::string name;
  std::vector<Value> args;
};

struct StepResult {
  enum class Kind : uint8_t {
    kFinished,  // Program completed; output available.
    kStateOp,   // Waiting on a shared-object operation result.
    kNondet,    // Waiting on a non-deterministic builtin result.
    kError,     // Runtime trap (deterministic given the same inputs and op results).
  };

  Kind kind;
  StateOpRequest op;    // kStateOp.
  NondetRequest nondet; // kNondet.
  std::string error;    // kError.
};

}  // namespace orochi

#endif  // SRC_LANG_STEP_RESULT_H_
