// The resumable scalar interpreter: one execution context per request (paper §3.2).
//
// Run() executes bytecode until the request finishes, traps, or needs an external result
// (shared-object operation or non-deterministic builtin). The driver then performs the
// operation — against live objects online, or via simulate-and-check at audit time — and
// resumes with ProvideValue().
//
// When `record_digest` is set (the online server), every conditional-branch decision and
// loop-iteration step folds into an incremental control-flow digest; the final digest is the
// opaque control-flow tag reported for grouping (paper §4.3).
#ifndef SRC_LANG_INTERPRETER_H_
#define SRC_LANG_INTERPRETER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/lang/builtins.h"
#include "src/lang/bytecode.h"
#include "src/lang/step_result.h"
#include "src/lang/value.h"

namespace orochi {

// Request inputs: ordered name -> value map (the $_GET analog read by input()).
using RequestParams = std::map<std::string, std::string>;

struct InterpreterOptions {
  bool record_digest = false;
  // Deterministic trap once a request executes this many instructions (guards against
  // buggy scripts wedging the server or the verifier).
  uint64_t max_instructions = 200'000'000;
};

class Interpreter {
 public:
  Interpreter(const Program* program, const RequestParams* params,
              InterpreterOptions options = {});

  // Executes until finish / state op / nondet / error. Must not be called while a yield
  // is pending (call ProvideValue first).
  StepResult Run();

  // Supplies the result of the pending state op or nondet builtin.
  void ProvideValue(Value v);

  bool finished() const { return finished_; }
  const std::string& output() const { return output_; }
  // Moves the output out (the run is over; output() is empty afterwards).
  std::string TakeOutput() { return std::move(output_); }
  uint64_t digest() const { return digest_; }
  uint64_t instructions_executed() const { return instructions_; }

 private:
  struct Frame {
    const Chunk* chunk;
    size_t pc;
    std::vector<Value> slots;
    size_t stack_base;
    size_t iter_base;
  };

  struct Iter {
    Value::ArrayPtr array;  // Snapshot (copy-on-write keeps it stable under mutation).
    size_t pos;
  };

  StepResult Trap(const std::string& message);
  StepResult Execute();

  const Program* program_;
  const RequestParams* params_;
  InterpreterOptions options_;

  std::vector<Frame> frames_;
  std::vector<Value> stack_;
  std::vector<Iter> iters_;

  std::string output_;
  uint64_t digest_;
  uint64_t instructions_ = 0;
  bool pending_value_ = false;  // Yielded; awaiting ProvideValue.
  bool finished_ = false;
  bool dead_ = false;  // Trapped; cannot resume.
};

}  // namespace orochi

#endif  // SRC_LANG_INTERPRETER_H_
