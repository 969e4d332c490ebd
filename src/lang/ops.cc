#include "src/lang/ops.h"

#include <cmath>
#include <cstdlib>
#include <optional>

namespace orochi {

namespace {

Result<Value> Err(const std::string& m) { return Result<Value>::Error(m); }

// Numeric coercion for arithmetic: ints and floats pass through; bools and null coerce;
// fully-numeric strings parse (integral form to int, otherwise float). Anything else fails.
std::optional<Value> CoerceNumeric(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt:
    case ValueType::kFloat:
      return v;
    case ValueType::kBool:
      return Value::Int(v.as_bool() ? 1 : 0);
    case ValueType::kNull:
      return Value::Int(0);
    case ValueType::kString: {
      const std::string& s = v.as_string();
      if (s.empty()) {
        return std::nullopt;
      }
      char* end = nullptr;
      errno = 0;
      long long iv = std::strtoll(s.c_str(), &end, 10);
      if (errno == 0 && end == s.c_str() + s.size()) {
        return Value::Int(iv);
      }
      end = nullptr;
      double dv = std::strtod(s.c_str(), &end);
      if (end == s.c_str() + s.size()) {
        return Value::Float(dv);
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

bool BothInts(const Value& a, const Value& b) { return a.is_int() && b.is_int(); }

}  // namespace

bool LooseEquals(const Value& a, const Value& b) {
  if (a.type() == b.type()) {
    if (a.is_float()) {
      return a.as_float() == b.as_float();
    }
    return Value::DeepEquals(a, b);
  }
  // Cross-type numeric equality (int vs float vs numeric string vs bool/null); pairs that
  // do not both coerce to numbers are unequal. Deterministic, documented in LANGUAGE.md.
  std::optional<Value> na = CoerceNumeric(a);
  std::optional<Value> nb = CoerceNumeric(b);
  if (na && nb) {
    return na->ToFloat() == nb->ToFloat();
  }
  return false;
}

Result<Value> ScalarBinary(Op op, const Value& a, const Value& b) {
  switch (op) {
    case Op::kConcat: {
      std::string s = a.ToString();
      b.AppendTo(&s);
      return Value::Str(std::move(s));
    }
    case Op::kEq:
      return Value::Bool(LooseEquals(a, b));
    case Op::kNe:
      return Value::Bool(!LooseEquals(a, b));
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod: {
      std::optional<Value> na = CoerceNumeric(a);
      std::optional<Value> nb = CoerceNumeric(b);
      if (!na || !nb) {
        return Err("arithmetic on non-numeric value");
      }
      if (op == Op::kMod) {
        int64_t x = na->ToInt();
        int64_t y = nb->ToInt();
        if (y == 0) {
          return Err("modulo by zero");
        }
        return Value::Int(x % y);
      }
      if (op == Op::kDiv) {
        if (BothInts(*na, *nb)) {
          int64_t y = nb->as_int();
          if (y == 0) {
            return Err("division by zero");
          }
          int64_t x = na->as_int();
          if (x % y == 0) {
            return Value::Int(x / y);
          }
          return Value::Float(static_cast<double>(x) / static_cast<double>(y));
        }
        double y = nb->ToFloat();
        if (y == 0.0) {
          return Err("division by zero");
        }
        return Value::Float(na->ToFloat() / y);
      }
      if (BothInts(*na, *nb)) {
        int64_t x = na->as_int();
        int64_t y = nb->as_int();
        switch (op) {
          case Op::kAdd: return Value::Int(static_cast<int64_t>(
              static_cast<uint64_t>(x) + static_cast<uint64_t>(y)));
          case Op::kSub: return Value::Int(static_cast<int64_t>(
              static_cast<uint64_t>(x) - static_cast<uint64_t>(y)));
          default: return Value::Int(static_cast<int64_t>(
              static_cast<uint64_t>(x) * static_cast<uint64_t>(y)));
        }
      }
      double x = na->ToFloat();
      double y = nb->ToFloat();
      switch (op) {
        case Op::kAdd: return Value::Float(x + y);
        case Op::kSub: return Value::Float(x - y);
        default: return Value::Float(x * y);
      }
    }
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      int cmp = 0;
      if (a.is_string() && b.is_string()) {
        // Two strings compare numerically when both are numeric, else byte-wise (PHP 8).
        std::optional<Value> na = CoerceNumeric(a);
        std::optional<Value> nb = CoerceNumeric(b);
        if (na && nb) {
          double x = na->ToFloat();
          double y = nb->ToFloat();
          cmp = x < y ? -1 : x > y ? 1 : 0;
        } else {
          int c = a.as_string().compare(b.as_string());
          cmp = c < 0 ? -1 : c > 0 ? 1 : 0;
        }
      } else {
        std::optional<Value> na = CoerceNumeric(a);
        std::optional<Value> nb = CoerceNumeric(b);
        if (!na || !nb) {
          return Err("relational comparison on non-numeric value");
        }
        double x = na->ToFloat();
        double y = nb->ToFloat();
        cmp = x < y ? -1 : x > y ? 1 : 0;
      }
      switch (op) {
        case Op::kLt: return Value::Bool(cmp < 0);
        case Op::kLe: return Value::Bool(cmp <= 0);
        case Op::kGt: return Value::Bool(cmp > 0);
        default: return Value::Bool(cmp >= 0);
      }
    }
    default:
      return Err("internal: not a binary opcode");
  }
}

void ScalarAppend(Value* target, const Value& suffix) {
  if (!target->is_string()) {
    *target = Value::Str(target->ToString());
  }
  if (suffix.is_string()) {
    target->AppendString(suffix.as_string());
  } else {
    target->AppendString(suffix.ToString());
  }
}

Result<Value> ScalarUnary(Op op, const Value& v) {
  if (op == Op::kNot) {
    return Value::Bool(!v.Truthy());
  }
  // kNeg.
  std::optional<Value> n = CoerceNumeric(v);
  if (!n) {
    return Err("negation of non-numeric value");
  }
  if (n->is_int()) {
    return Value::Int(-n->as_int());
  }
  return Value::Float(-n->as_float());
}

Result<ArrayKey> ToArrayKey(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt:
      return ArrayKey(v.as_int());
    case ValueType::kString:
      return ArrayKey(v.as_string());
    case ValueType::kBool:
      return ArrayKey(static_cast<int64_t>(v.as_bool() ? 1 : 0));
    case ValueType::kFloat:
      return ArrayKey(static_cast<int64_t>(v.as_float()));
    case ValueType::kNull:
      return ArrayKey(std::string());
    default:
      return Result<ArrayKey>::Error("invalid array key type");
  }
}

Status ScalarIndexSetPath(Value* root, const std::vector<ArrayKey>& keys, bool append,
                          const Value& value) {
  Value* node = root;
  for (size_t i = 0; i < keys.size(); i++) {
    if (node->is_null()) {
      *node = Value::Array();
    }
    if (!node->is_array()) {
      return Status::Error("cannot index-assign into a non-array value");
    }
    ArrayObject& obj = node->MutableArray();
    bool is_last = (i == keys.size() - 1) && !append;
    if (is_last) {
      obj.Set(keys[i], value);
      return Status::Ok();
    }
    if (obj.Find(keys[i]) == nullptr) {
      obj.Set(keys[i], Value::Null());
    }
    node = const_cast<Value*>(obj.Find(keys[i]));
  }
  if (append) {
    if (node->is_null()) {
      *node = Value::Array();
    }
    if (!node->is_array()) {
      return Status::Error("cannot append to a non-array value");
    }
    node->MutableArray().Append(value);
    return Status::Ok();
  }
  *node = value;
  return Status::Ok();
}

Result<Value> ScalarIndexGet(const Value& container, const Value& key) {
  if (container.is_array()) {
    Result<ArrayKey> k = ToArrayKey(key);
    if (!k.ok()) {
      return Err(k.error());
    }
    const Value* found = container.array().Find(k.value());
    return found ? *found : Value::Null();
  }
  if (container.is_string()) {
    int64_t i = key.ToInt();
    const std::string& s = container.as_string();
    if (i < 0 || static_cast<size_t>(i) >= s.size()) {
      return Value::Null();
    }
    return Value::Str(std::string(1, s[static_cast<size_t>(i)]));
  }
  if (container.is_null()) {
    return Value::Null();
  }
  return Err("cannot index a non-array value");
}

}  // namespace orochi
