// SIMD-on-demand group re-execution (the acc-PHP analog, paper §3.1 and §4.3).
//
// One AccInterpreter logically executes every request of a control-flow group at once.
// Program state is held in (possibly) multivalues; an instruction whose operands are
// univalues executes once ("univalently"), an instruction touching a multivalue executes
// componentwise ("multivalently") and the result collapses back to a univalue whenever all
// components re-converge. Branch decisions must agree across the group — a disagreement
// means the untrusted control-flow grouping report was wrong and the audit must reject.
//
// Like the scalar interpreter, execution yields at shared-object operations and
// non-deterministic builtins; the driver supplies per-request results (simulate-and-check
// during an audit).
//
// Some multivalue situations are legal for a well-behaved executor but are not representable
// in lockstep (e.g. a pure builtin that traps for a subset of the group). Those surface as
// kFallback: the audit re-executes the group's requests individually (the same escape hatch
// acc-PHP uses, §4.7).
#ifndef SRC_LANG_ACC_INTERPRETER_H_
#define SRC_LANG_ACC_INTERPRETER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/lang/builtins.h"
#include "src/lang/bytecode.h"
#include "src/lang/interpreter.h"
#include "src/lang/step_result.h"
#include "src/lang/value.h"

namespace orochi {

struct AccStepResult {
  enum class Kind : uint8_t {
    kFinished,  // All requests in the group completed.
    kStateOp,   // Per-request state operations awaiting results.
    kNondet,    // Per-request nondet builtin awaiting results.
    kError,     // Uniform deterministic trap (all components trap identically).
    kDiverged,  // Control flow disagreed within the group: audit must REJECT.
    kFallback,  // Not representable in lockstep: re-execute requests individually.
  };

  Kind kind;
  std::vector<StateOpRequest> ops;       // kStateOp: one per request, group order.
  std::vector<NondetRequest> nondets;    // kNondet: one per request, group order.
  std::string error;                     // kError / kDiverged / kFallback reason.
};

class AccInterpreter {
 public:
  // `params[j]` are the inputs of the j-th request in the group. Pointers must outlive
  // the interpreter.
  AccInterpreter(const Program* program, std::vector<const RequestParams*> params,
                 InterpreterOptions options = {});

  AccStepResult Run();

  // Supplies per-request results for the pending state op / nondet (group order). The
  // vector is collapsed into a univalue when all results agree.
  void ProvideValues(std::vector<Value> per_request);
  // Convenience for a uniform result.
  void ProvideUniform(Value v);

  size_t group_size() const { return params_.size(); }
  const std::vector<std::string>& outputs() const { return outputs_; }
  // Moves the per-request outputs out (the run is over; outputs() is empty afterwards).
  std::vector<std::string> TakeOutputs() { return std::move(outputs_); }

  // Statistics backing Figures 10/11: instruction executions and how many of them were
  // multivalent (took the componentwise path).
  uint64_t total_instructions() const { return instructions_; }
  uint64_t multivalent_instructions() const { return multivalent_; }

 private:
  struct Frame {
    const Chunk* chunk;
    size_t pc;
    std::vector<Value> slots;
    size_t stack_base;
    size_t iter_base;
  };

  // Iterator over either a univalue array or per-component arrays (all the same length).
  struct Iter {
    bool is_multi;
    Value::ArrayPtr array;                  // Univalue form.
    std::vector<Value::ArrayPtr> arrays;    // Multi form (one per request).
    size_t pos;
  };

  AccStepResult Trap(const std::string& message);
  AccStepResult Diverge(const std::string& message);
  AccStepResult Fallback(const std::string& message);
  AccStepResult Execute();

  const Program* program_;
  std::vector<const RequestParams*> params_;
  InterpreterOptions options_;

  std::vector<Frame> frames_;
  std::vector<Value> stack_;
  std::vector<Iter> iters_;
  std::vector<std::string> outputs_;

  uint64_t instructions_ = 0;
  uint64_t multivalent_ = 0;
  bool pending_value_ = false;
  bool finished_ = false;
  bool dead_ = false;
};

}  // namespace orochi

#endif  // SRC_LANG_ACC_INTERPRETER_H_
