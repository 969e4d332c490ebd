// Builtin function registry for wscript.
//
// Builtins come in four kinds:
//  - kPure: deterministic functions of their arguments (string/array/math library).
//  - kInput: read request parameters (resolved from the interpreter's request context).
//  - kStateOp: shared-object operations; the interpreter yields a StateOpRequest.
//  - kNondet: non-deterministic builtins; the interpreter yields a NondetRequest and the
//    server records the returned value as a report (paper §4.6).
#ifndef SRC_LANG_BUILTINS_H_
#define SRC_LANG_BUILTINS_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/lang/value.h"

namespace orochi {

enum class BuiltinKind : uint8_t { kPure, kInput, kStateOp, kNondet };

// Pure builtins only read their arguments: a grouped call binds a univalue argument once
// and passes the same Value to every component call.
using PureFn = Result<Value> (*)(const std::vector<Value>& args);

struct BuiltinInfo {
  const char* name;
  BuiltinKind kind;
  int min_args;
  int max_args;  // -1 = unbounded.
  PureFn fn;     // kPure only.
};

// Stable ids (indices into the builtin table) referenced by compiled bytecode.
int BuiltinIdByName(const std::string& name);  // -1 when unknown.
const BuiltinInfo& BuiltinById(int id);
int BuiltinCount();

// Well-known builtin ids used by the interpreters to special-case behaviour.
struct BuiltinIds {
  int input;
  int reg_read;
  int reg_write;
  int kv_get;
  int kv_set;
  int db_query;
  int db_txn;
  int time;
  int microtime;
  int rand;
};
const BuiltinIds& WellKnownBuiltins();

}  // namespace orochi

#endif  // SRC_LANG_BUILTINS_H_
