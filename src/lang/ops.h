// Scalar operator semantics shared by the server-side interpreter and the audit-time
// acc interpreter (which applies them componentwise to multivalues).
#ifndef SRC_LANG_OPS_H_
#define SRC_LANG_OPS_H_

#include "src/common/result.h"
#include "src/lang/bytecode.h"
#include "src/lang/value.h"

namespace orochi {

// Arithmetic/comparison/concat for two scalar operands. `op` must be one of the binary
// opcodes. Numeric strings, bools and null coerce to numbers in arithmetic (PHP-style);
// non-numeric strings trap deterministically.
Result<Value> ScalarBinary(Op op, const Value& a, const Value& b);

// kAppendVar: *target = *target . suffix, appending in place when *target is a string it
// owns alone (Value::AppendString). Never fails.
void ScalarAppend(Value* target, const Value& suffix);

// kNot / kNeg.
Result<Value> ScalarUnary(Op op, const Value& v);

// container[key]: arrays look up (null when missing); strings index bytes; null yields
// null. Other container types trap.
Result<Value> ScalarIndexGet(const Value& container, const Value& key);

// Converts a scalar value to an array key with PHP-like canonicalization.
Result<ArrayKey> ToArrayKey(const Value& v);

// Loose equality used by == (type-aware; numeric cross-type comparison; deep arrays).
bool LooseEquals(const Value& a, const Value& b);

// Assigns `value` through an index path rooted at *root: root[k0][k1]...[kN] = value, with
// PHP-style auto-vivification of nulls. When `append` is set the final step appends.
// Intermediate non-array nodes produce an error.
Status ScalarIndexSetPath(Value* root, const std::vector<ArrayKey>& keys, bool append,
                          const Value& value);

}  // namespace orochi

#endif  // SRC_LANG_OPS_H_
