#include "src/lang/builtins.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <unordered_map>

#include "src/common/hash.h"

namespace orochi {

namespace {

Result<Value> Err(const std::string& m) { return Result<Value>::Error(m); }

// A string argument, read in place when it is a string value; any other value renders once
// (Value::ToString) into a buffer the argument owns.
class StrArg {
 public:
  explicit StrArg(const Value& v) : v_(v) {
    if (!v.is_string()) {
      rendered_ = v.ToString();
    }
  }

  std::string_view view() const {
    return v_.is_string() ? std::string_view(v_.as_string()) : std::string_view(rendered_);
  }

  // The result of a builtin whose output bytes equal this argument's: the argument itself
  // when it is a string, so the result shares its storage instead of copying it.
  Value Unchanged() { return v_.is_string() ? v_ : Value::Str(std::move(rendered_)); }

 private:
  const Value& v_;
  std::string rendered_;
};

Result<Value> BStrlen(const std::vector<Value>& args) {
  return Value::Int(static_cast<int64_t>(StrArg(args[0]).view().size()));
}

Result<Value> BSubstr(const std::vector<Value>& args) {
  StrArg arg(args[0]);
  std::string_view s = arg.view();
  int64_t start = args[1].ToInt();
  int64_t n = static_cast<int64_t>(s.size());
  if (start < 0) {
    start = std::max<int64_t>(0, n + start);
  }
  if (start >= n) {
    return Value::Str("");
  }
  int64_t len = n - start;
  if (args.size() >= 3 && !args[2].is_null()) {
    len = args[2].ToInt();
    if (len < 0) {
      len = std::max<int64_t>(0, n - start + len);
    }
  }
  len = std::min(len, n - start);
  if (len == n) {
    return arg.Unchanged();
  }
  return Value::Str(std::string(s.substr(static_cast<size_t>(start), static_cast<size_t>(len))));
}

Result<Value> BStrpos(const std::vector<Value>& args) {
  StrArg hay(args[0]);
  StrArg needle(args[1]);
  size_t pos = hay.view().find(needle.view());
  if (pos == std::string::npos) {
    return Value::Int(-1);  // Deviation from PHP's `false`: documented in LANGUAGE.md.
  }
  return Value::Int(static_cast<int64_t>(pos));
}

Result<Value> BStrReplace(const std::vector<Value>& args) {
  StrArg search_arg(args[0]);
  StrArg replace_arg(args[1]);
  StrArg subject_arg(args[2]);
  std::string_view search = search_arg.view();
  std::string_view replace = replace_arg.view();
  std::string_view subject = subject_arg.view();
  size_t pos = search.empty() ? std::string::npos : subject.find(search);
  if (pos == std::string::npos || search == replace) {
    return subject_arg.Unchanged();
  }
  std::string out;
  size_t start = 0;
  while (pos != std::string::npos) {
    out.append(subject.substr(start, pos - start));
    out.append(replace);
    start = pos + search.size();
    pos = subject.find(search, start);
  }
  out.append(subject.substr(start));
  return Value::Str(std::move(out));
}

// strtolower/strtoupper: maps each byte through `map` (std::tolower or std::toupper);
// returns the argument itself when no byte changes.
Result<Value> MapBytes(const Value& v, int (*map)(int)) {
  StrArg arg(v);
  std::string_view s = arg.view();
  auto changes = [map](char c) {
    return map(static_cast<unsigned char>(c)) != static_cast<unsigned char>(c);
  };
  size_t first = 0;
  while (first < s.size() && !changes(s[first])) {
    first++;
  }
  if (first == s.size()) {
    return arg.Unchanged();
  }
  std::string out(s);
  for (size_t i = first; i < out.size(); i++) {
    out[i] = static_cast<char>(map(static_cast<unsigned char>(out[i])));
  }
  return Value::Str(std::move(out));
}

int ToLower(int c) { return std::tolower(c); }
int ToUpper(int c) { return std::toupper(c); }

Result<Value> BStrtolower(const std::vector<Value>& args) { return MapBytes(args[0], ToLower); }

Result<Value> BStrtoupper(const std::vector<Value>& args) { return MapBytes(args[0], ToUpper); }

Result<Value> BTrim(const std::vector<Value>& args) {
  StrArg arg(args[0]);
  std::string_view s = arg.view();
  size_t b = s.find_first_not_of(" \t\n\r\0\x0B", 0, 6);
  if (b == std::string::npos) {
    return Value::Str("");
  }
  size_t e = s.find_last_not_of(" \t\n\r\0\x0B", std::string::npos, 6);
  if (b == 0 && e + 1 == s.size()) {
    return arg.Unchanged();
  }
  return Value::Str(std::string(s.substr(b, e - b + 1)));
}

Result<Value> BStrRepeat(const std::vector<Value>& args) {
  std::string s = args[0].ToString();
  int64_t n = args[1].ToInt();
  if (n < 0) {
    return Err("str_repeat: negative count");
  }
  if (static_cast<uint64_t>(n) * s.size() > (64u << 20)) {
    return Err("str_repeat: result too large");
  }
  std::string out;
  out.reserve(s.size() * static_cast<size_t>(n));
  for (int64_t i = 0; i < n; i++) {
    out += s;
  }
  return Value::Str(std::move(out));
}

// Replaces each byte that `entity` maps to a nonempty string, copying the runs between
// them whole; returns the argument itself when no byte is replaced. `entity` is inlined
// into the scan, which costs one switch per byte.
template <typename EntityFn>
Result<Value> EscapeBytes(const Value& v, EntityFn entity) {
  StrArg arg(v);
  std::string_view s = arg.view();
  std::string out;
  size_t start = 0;
  for (size_t i = 0; i < s.size(); i++) {
    std::string_view e = entity(s[i]);
    if (e.empty()) {
      continue;
    }
    if (out.empty()) {
      out.reserve(s.size() + s.size() / 8 + 8);
    }
    out.append(s.substr(start, i - start));
    out.append(e);
    start = i + 1;
  }
  if (out.empty()) {
    return arg.Unchanged();
  }
  out.append(s.substr(start));
  return Value::Str(std::move(out));
}

Result<Value> BHtmlspecialchars(const std::vector<Value>& args) {
  return EscapeBytes(args[0], [](char c) -> std::string_view {
    switch (c) {
      case '&': return "&amp;";
      case '<': return "&lt;";
      case '>': return "&gt;";
      case '"': return "&quot;";
      default: return {};
    }
  });
}

Result<Value> BImplode(const std::vector<Value>& args) {
  if (!args[1].is_array()) {
    return Err("implode: second argument must be an array");
  }
  std::string sep = args[0].ToString();
  std::string out;
  bool first = true;
  for (const auto& [k, v] : args[1].array().entries()) {
    (void)k;
    if (!first) {
      out += sep;
    }
    first = false;
    out += v.ToString();
  }
  return Value::Str(std::move(out));
}

Result<Value> BExplode(const std::vector<Value>& args) {
  std::string sep = args[0].ToString();
  std::string s = args[1].ToString();
  if (sep.empty()) {
    return Err("explode: empty separator");
  }
  Value out = Value::Array();
  ArrayObject& arr = out.MutableArray();
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      arr.Append(Value::Str(s.substr(start)));
      return out;
    }
    arr.Append(Value::Str(s.substr(start, pos - start)));
    start = pos + sep.size();
  }
}

Result<Value> BCount(const std::vector<Value>& args) {
  if (!args[0].is_array()) {
    return Err("count: argument must be an array");
  }
  return Value::Int(static_cast<int64_t>(args[0].array().size()));
}

Result<Value> BIsset(const std::vector<Value>& args) { return Value::Bool(!args[0].is_null()); }

Result<Value> BInArray(const std::vector<Value>& args) {
  if (!args[1].is_array()) {
    return Err("in_array: second argument must be an array");
  }
  for (const auto& [k, v] : args[1].array().entries()) {
    (void)k;
    if (Value::DeepEquals(args[0], v)) {
      return Value::Bool(true);
    }
  }
  return Value::Bool(false);
}

Result<Value> BArrayKeys(const std::vector<Value>& args) {
  if (!args[0].is_array()) {
    return Err("array_keys: argument must be an array");
  }
  Value out = Value::Array();
  ArrayObject& arr = out.MutableArray();
  for (const auto& [k, v] : args[0].array().entries()) {
    (void)v;
    arr.Append(k.is_int() ? Value::Int(k.int_key()) : Value::Str(k.str_key()));
  }
  return out;
}

Result<Value> BArrayValues(const std::vector<Value>& args) {
  if (!args[0].is_array()) {
    return Err("array_values: argument must be an array");
  }
  Value out = Value::Array();
  ArrayObject& arr = out.MutableArray();
  for (const auto& [k, v] : args[0].array().entries()) {
    (void)k;
    arr.Append(v);
  }
  return out;
}

Result<Value> BArrayKeyExists(const std::vector<Value>& args) {
  if (!args[1].is_array()) {
    return Err("array_key_exists: second argument must be an array");
  }
  ArrayKey key = args[0].is_int() ? ArrayKey(args[0].as_int()) : ArrayKey(args[0].ToString());
  return Value::Bool(args[1].array().Has(key));
}

Result<Value> BArrayMerge(const std::vector<Value>& args) {
  Value out = Value::Array();
  ArrayObject& arr = out.MutableArray();
  for (const Value& a : args) {
    if (!a.is_array()) {
      return Err("array_merge: arguments must be arrays");
    }
    for (const auto& [k, v] : a.array().entries()) {
      if (k.is_int()) {
        arr.Append(v);  // Integer keys are renumbered, as in PHP.
      } else {
        arr.Set(k, v);
      }
    }
  }
  return out;
}

Result<Value> BArraySlice(const std::vector<Value>& args) {
  if (!args[0].is_array()) {
    return Err("array_slice: first argument must be an array");
  }
  const auto& entries = args[0].array().entries();
  int64_t n = static_cast<int64_t>(entries.size());
  int64_t offset = args[1].ToInt();
  if (offset < 0) {
    offset = std::max<int64_t>(0, n + offset);
  }
  int64_t len = n - offset;
  if (args.size() >= 3 && !args[2].is_null()) {
    len = args[2].ToInt();
    if (len < 0) {
      len = std::max<int64_t>(0, n - offset + len);
    }
  }
  Value out = Value::Array();
  ArrayObject& arr = out.MutableArray();
  for (int64_t i = offset; i < std::min(n, offset + len); i++) {
    const auto& [k, v] = entries[static_cast<size_t>(i)];
    if (k.is_int()) {
      arr.Append(v);
    } else {
      arr.Set(k, v);
    }
  }
  return out;
}

Result<Value> BArrayReverse(const std::vector<Value>& args) {
  if (!args[0].is_array()) {
    return Err("array_reverse: argument must be an array");
  }
  const auto& entries = args[0].array().entries();
  Value out = Value::Array();
  ArrayObject& arr = out.MutableArray();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->first.is_int()) {
      arr.Append(it->second);
    } else {
      arr.Set(it->first, it->second);
    }
  }
  return out;
}

// Deterministic cross-type ordering for sort(): by type rank, then by value.
int CompareForSort(const Value& a, const Value& b) {
  auto rank = [](const Value& v) -> int {
    switch (v.type()) {
      case ValueType::kNull: return 0;
      case ValueType::kBool: return 1;
      case ValueType::kInt:
      case ValueType::kFloat: return 2;
      case ValueType::kString: return 3;
      case ValueType::kArray: return 4;
      case ValueType::kMulti: return 5;
    }
    return 6;
  };
  int ra = rank(a);
  int rb = rank(b);
  if (ra != rb) {
    return ra < rb ? -1 : 1;
  }
  if (ra == 2) {
    double x = a.ToFloat();
    double y = b.ToFloat();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (ra == 3) {
    return a.as_string().compare(b.as_string()) < 0   ? -1
           : a.as_string().compare(b.as_string()) > 0 ? 1
                                                      : 0;
  }
  if (ra == 1) {
    return (a.as_bool() ? 1 : 0) - (b.as_bool() ? 1 : 0);
  }
  if (ra == 4) {
    std::string sa = a.Serialize();
    std::string sb = b.Serialize();
    return sa.compare(sb) < 0 ? -1 : sa.compare(sb) > 0 ? 1 : 0;
  }
  return 0;
}

// Deviation from PHP: sort/ksort return a sorted copy (no by-reference parameters in
// wscript); documented in LANGUAGE.md.
Result<Value> BSort(const std::vector<Value>& args) {
  if (!args[0].is_array()) {
    return Err("sort: argument must be an array");
  }
  std::vector<Value> vals;
  for (const auto& [k, v] : args[0].array().entries()) {
    (void)k;
    vals.push_back(v);
  }
  std::stable_sort(vals.begin(), vals.end(),
                   [](const Value& a, const Value& b) { return CompareForSort(a, b) < 0; });
  Value out = Value::Array();
  ArrayObject& arr = out.MutableArray();
  for (Value& v : vals) {
    arr.Append(std::move(v));
  }
  return out;
}

Result<Value> BKsort(const std::vector<Value>& args) {
  if (!args[0].is_array()) {
    return Err("ksort: argument must be an array");
  }
  auto entries = args[0].array().entries();
  std::stable_sort(entries.begin(), entries.end(), [](const auto& x, const auto& y) {
    const ArrayKey& a = x.first;
    const ArrayKey& b = y.first;
    if (a.is_int() != b.is_int()) {
      return a.is_int();  // Integer keys before string keys (deterministic rule).
    }
    if (a.is_int()) {
      return a.int_key() < b.int_key();
    }
    return a.str_key() < b.str_key();
  });
  Value out = Value::Array();
  ArrayObject& arr = out.MutableArray();
  for (auto& [k, v] : entries) {
    arr.Set(k, std::move(v));
  }
  return out;
}

Result<Value> BRange(const std::vector<Value>& args) {
  int64_t lo = args[0].ToInt();
  int64_t hi = args[1].ToInt();
  if (hi - lo > (1 << 22) || lo - hi > (1 << 22)) {
    return Err("range: too large");
  }
  Value out = Value::Array();
  ArrayObject& arr = out.MutableArray();
  if (lo <= hi) {
    for (int64_t i = lo; i <= hi; i++) {
      arr.Append(Value::Int(i));
    }
  } else {
    for (int64_t i = lo; i >= hi; i--) {
      arr.Append(Value::Int(i));
    }
  }
  return out;
}

Result<Value> BMax(const std::vector<Value>& args) {
  const Value* best = nullptr;
  auto consider = [&best](const Value& v) {
    if (best == nullptr || CompareForSort(*best, v) < 0) {
      best = &v;
    }
  };
  if (args.size() == 1 && args[0].is_array()) {
    if (args[0].array().size() == 0) {
      return Err("max: empty array");
    }
    for (const auto& [k, v] : args[0].array().entries()) {
      (void)k;
      consider(v);
    }
  } else {
    for (const Value& v : args) {
      consider(v);
    }
  }
  return *best;
}

Result<Value> BMin(const std::vector<Value>& args) {
  const Value* best = nullptr;
  auto consider = [&best](const Value& v) {
    if (best == nullptr || CompareForSort(*best, v) > 0) {
      best = &v;
    }
  };
  if (args.size() == 1 && args[0].is_array()) {
    if (args[0].array().size() == 0) {
      return Err("min: empty array");
    }
    for (const auto& [k, v] : args[0].array().entries()) {
      (void)k;
      consider(v);
    }
  } else {
    for (const Value& v : args) {
      consider(v);
    }
  }
  return *best;
}

Result<Value> BAbs(const std::vector<Value>& args) {
  if (args[0].is_float()) {
    return Value::Float(std::fabs(args[0].as_float()));
  }
  int64_t v = args[0].ToInt();
  return Value::Int(v < 0 ? -v : v);
}

Result<Value> BFloor(const std::vector<Value>& args) {
  return Value::Float(std::floor(args[0].ToFloat()));
}
Result<Value> BCeil(const std::vector<Value>& args) {
  return Value::Float(std::ceil(args[0].ToFloat()));
}
Result<Value> BSqrt(const std::vector<Value>& args) {
  return Value::Float(std::sqrt(args[0].ToFloat()));
}

Result<Value> BPow(const std::vector<Value>& args) {
  if (args[0].is_int() && args[1].is_int() && args[1].as_int() >= 0 && args[1].as_int() < 63) {
    int64_t base = args[0].as_int();
    int64_t result = 1;
    for (int64_t i = 0; i < args[1].as_int(); i++) {
      result *= base;
    }
    return Value::Int(result);
  }
  return Value::Float(std::pow(args[0].ToFloat(), args[1].ToFloat()));
}

Result<Value> BIntdiv(const std::vector<Value>& args) {
  int64_t d = args[1].ToInt();
  if (d == 0) {
    return Err("intdiv: division by zero");
  }
  return Value::Int(args[0].ToInt() / d);
}

Result<Value> BIntval(const std::vector<Value>& args) { return Value::Int(args[0].ToInt()); }
Result<Value> BFloatval(const std::vector<Value>& args) { return Value::Float(args[0].ToFloat()); }
Result<Value> BStrval(const std::vector<Value>& args) { return Value::Str(args[0].ToString()); }
Result<Value> BBoolval(const std::vector<Value>& args) { return Value::Bool(args[0].Truthy()); }
Result<Value> BIsArray(const std::vector<Value>& args) { return Value::Bool(args[0].is_array()); }
Result<Value> BIsString(const std::vector<Value>& args) { return Value::Bool(args[0].is_string()); }

Result<Value> BIsNumeric(const std::vector<Value>& args) {
  if (args[0].is_numeric()) {
    return Value::Bool(true);
  }
  if (!args[0].is_string()) {
    return Value::Bool(false);
  }
  const std::string& s = args[0].as_string();
  if (s.empty()) {
    return Value::Bool(false);
  }
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return Value::Bool(end == s.c_str() + s.size());
}

Result<Value> BNumberFormat(const std::vector<Value>& args) {
  double v = args[0].ToFloat();
  int decimals = args.size() >= 2 ? static_cast<int>(args[1].ToInt()) : 0;
  if (decimals < 0 || decimals > 18) {
    return Err("number_format: bad decimals");
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  // Insert thousands separators into the integer part.
  std::string s = buf;
  size_t dot = s.find('.');
  size_t int_end = dot == std::string::npos ? s.size() : dot;
  size_t start = (!s.empty() && s[0] == '-') ? 1 : 0;
  std::string out = s.substr(0, start);
  size_t digits = int_end - start;
  for (size_t i = 0; i < digits; i++) {
    if (i > 0 && (digits - i) % 3 == 0) {
      out += ',';
    }
    out += s[start + i];
  }
  out += s.substr(int_end);
  return Value::Str(std::move(out));
}

// SQL string-literal escaping for the engine's '' convention (the addslashes analog).
Result<Value> BSqlEscape(const std::vector<Value>& args) {
  return EscapeBytes(args[0], [](char c) -> std::string_view {
    return c == '\'' ? "''" : std::string_view();
  });
}

Result<Value> BHash64(const std::vector<Value>& args) {
  uint64_t h = FnvHash(StrArg(args[0]).view());
  std::string hex(16, '0');  // Zero-padded lower-case hex, as printf's "%016llx".
  for (size_t i = hex.size(); i-- > 0; h >>= 4) {
    hex[i] = "0123456789abcdef"[h & 0xf];
  }
  return Value::Str(std::move(hex));
}

Result<Value> BUnreachablePure(const std::vector<Value>&) {
  return Err("internal: non-pure builtin dispatched as pure");
}

// The table order defines stable builtin ids referenced by compiled bytecode.
const BuiltinInfo kBuiltins[] = {
    // Request input.
    {"input", BuiltinKind::kInput, 1, 1, BUnreachablePure},
    // Shared-object operations.
    {"reg_read", BuiltinKind::kStateOp, 1, 1, BUnreachablePure},
    {"reg_write", BuiltinKind::kStateOp, 2, 2, BUnreachablePure},
    {"kv_get", BuiltinKind::kStateOp, 1, 1, BUnreachablePure},
    {"kv_set", BuiltinKind::kStateOp, 2, 2, BUnreachablePure},
    {"db_query", BuiltinKind::kStateOp, 1, 1, BUnreachablePure},
    {"db_txn", BuiltinKind::kStateOp, 1, 1, BUnreachablePure},
    // Non-determinism (recorded as reports, paper §4.6).
    {"time", BuiltinKind::kNondet, 0, 0, BUnreachablePure},
    {"microtime", BuiltinKind::kNondet, 0, 0, BUnreachablePure},
    {"rand", BuiltinKind::kNondet, 2, 2, BUnreachablePure},
    // Pure library.
    {"strlen", BuiltinKind::kPure, 1, 1, BStrlen},
    {"substr", BuiltinKind::kPure, 2, 3, BSubstr},
    {"strpos", BuiltinKind::kPure, 2, 2, BStrpos},
    {"str_replace", BuiltinKind::kPure, 3, 3, BStrReplace},
    {"strtolower", BuiltinKind::kPure, 1, 1, BStrtolower},
    {"strtoupper", BuiltinKind::kPure, 1, 1, BStrtoupper},
    {"trim", BuiltinKind::kPure, 1, 1, BTrim},
    {"str_repeat", BuiltinKind::kPure, 2, 2, BStrRepeat},
    {"htmlspecialchars", BuiltinKind::kPure, 1, 1, BHtmlspecialchars},
    {"implode", BuiltinKind::kPure, 2, 2, BImplode},
    {"explode", BuiltinKind::kPure, 2, 2, BExplode},
    {"count", BuiltinKind::kPure, 1, 1, BCount},
    {"isset", BuiltinKind::kPure, 1, 1, BIsset},
    {"in_array", BuiltinKind::kPure, 2, 2, BInArray},
    {"array_keys", BuiltinKind::kPure, 1, 1, BArrayKeys},
    {"array_values", BuiltinKind::kPure, 1, 1, BArrayValues},
    {"array_key_exists", BuiltinKind::kPure, 2, 2, BArrayKeyExists},
    {"array_merge", BuiltinKind::kPure, 1, -1, BArrayMerge},
    {"array_slice", BuiltinKind::kPure, 2, 3, BArraySlice},
    {"array_reverse", BuiltinKind::kPure, 1, 1, BArrayReverse},
    {"sort", BuiltinKind::kPure, 1, 1, BSort},
    {"ksort", BuiltinKind::kPure, 1, 1, BKsort},
    {"range", BuiltinKind::kPure, 2, 2, BRange},
    {"max", BuiltinKind::kPure, 1, -1, BMax},
    {"min", BuiltinKind::kPure, 1, -1, BMin},
    {"abs", BuiltinKind::kPure, 1, 1, BAbs},
    {"floor", BuiltinKind::kPure, 1, 1, BFloor},
    {"ceil", BuiltinKind::kPure, 1, 1, BCeil},
    {"sqrt", BuiltinKind::kPure, 1, 1, BSqrt},
    {"pow", BuiltinKind::kPure, 2, 2, BPow},
    {"intdiv", BuiltinKind::kPure, 2, 2, BIntdiv},
    {"intval", BuiltinKind::kPure, 1, 1, BIntval},
    {"floatval", BuiltinKind::kPure, 1, 1, BFloatval},
    {"strval", BuiltinKind::kPure, 1, 1, BStrval},
    {"boolval", BuiltinKind::kPure, 1, 1, BBoolval},
    {"is_array", BuiltinKind::kPure, 1, 1, BIsArray},
    {"is_string", BuiltinKind::kPure, 1, 1, BIsString},
    {"is_numeric", BuiltinKind::kPure, 1, 1, BIsNumeric},
    {"number_format", BuiltinKind::kPure, 1, 2, BNumberFormat},
    {"hash64", BuiltinKind::kPure, 1, 1, BHash64},
    {"sql_escape", BuiltinKind::kPure, 1, 1, BSqlEscape},
};

constexpr int kNumBuiltins = static_cast<int>(sizeof(kBuiltins) / sizeof(kBuiltins[0]));

const std::unordered_map<std::string, int>& NameIndex() {
  static const auto* index = [] {
    auto* m = new std::unordered_map<std::string, int>();
    for (int i = 0; i < kNumBuiltins; i++) {
      (*m)[kBuiltins[i].name] = i;
    }
    return m;
  }();
  return *index;
}

}  // namespace

int BuiltinIdByName(const std::string& name) {
  auto it = NameIndex().find(name);
  return it == NameIndex().end() ? -1 : it->second;
}

const BuiltinInfo& BuiltinById(int id) { return kBuiltins[id]; }

int BuiltinCount() { return kNumBuiltins; }

const BuiltinIds& WellKnownBuiltins() {
  static const BuiltinIds ids = {
      BuiltinIdByName("input"),    BuiltinIdByName("reg_read"), BuiltinIdByName("reg_write"),
      BuiltinIdByName("kv_get"),   BuiltinIdByName("kv_set"),   BuiltinIdByName("db_query"),
      BuiltinIdByName("db_txn"),   BuiltinIdByName("time"),     BuiltinIdByName("microtime"),
      BuiltinIdByName("rand"),
  };
  return ids;
}

}  // namespace orochi
