// Dynamically-typed values for the wscript language (the PHP analog in this reproduction).
//
// Values are: null, bool, int64, float64, string, array (PHP-like ordered hash with value
// semantics via copy-on-write), and multivalue. A multivalue holds one component per request
// in a control-flow group and is the representation behind SIMD-on-demand re-execution
// (paper §3.1, §4.3): instructions over identical components collapse back to scalars.
//
// Values serialize to a canonical byte string (Serialize/DeserializeValue). Operation-log
// report entries store operands in this form, so reports are plain untrusted data that the
// verifier parses defensively.
#ifndef SRC_LANG_VALUE_H_
#define SRC_LANG_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/result.h"

namespace orochi {

class Value;

// Array keys are either canonical integers or strings, mirroring PHP semantics where
// "5" and 5 address the same slot (we canonicalize integer-like strings at insertion).
class ArrayKey {
 public:
  ArrayKey() : int_key_(0), is_int_(true) {}
  explicit ArrayKey(int64_t k) : int_key_(k), is_int_(true) {}
  explicit ArrayKey(std::string k);

  bool is_int() const { return is_int_; }
  int64_t int_key() const { return int_key_; }
  const std::string& str_key() const { return str_key_; }

  bool operator==(const ArrayKey& o) const {
    if (is_int_ != o.is_int_) {
      return false;
    }
    return is_int_ ? int_key_ == o.int_key_ : str_key_ == o.str_key_;
  }

  size_t Hash() const;
  // Rendering used by ToString of keys and by canonical serialization.
  std::string ToString() const;

 private:
  int64_t int_key_;
  std::string str_key_;
  bool is_int_;
};

struct ArrayKeyHash {
  size_t operator()(const ArrayKey& k) const { return k.Hash(); }
};

// Ordered hash: preserves insertion order for iteration (like PHP arrays). Lookups take
// one of three paths, so most arrays never build a hash table (PHP 7's packed layout):
//   - packed: the keys are exactly 0..size()-1 in insertion order (a list, e.g. a SELECT
//     result's rows), and a lookup goes straight to the position;
//   - small: any other array of at most kScanLimit entries scans `entries_` (a result row
//     keyed by its column names);
//   - indexed: a non-packed array past kScanLimit keeps `index_`, key -> position.
// A copy of a packed or small array therefore copies one vector and no hash nodes.
// Deletion preserves the order of the remaining entries, and next_index() never moves
// back (PHP: unset of the last element of [0,1,2] then $a[] = x uses key 3).
class ArrayObject {
 public:
  static constexpr size_t kScanLimit = 8;

  ArrayObject() = default;

  size_t size() const { return entries_.size(); }
  bool Has(const ArrayKey& k) const { return Find(k) != nullptr; }
  const Value* Find(const ArrayKey& k) const;
  void Set(const ArrayKey& k, Value v);
  void Append(Value v);
  void Erase(const ArrayKey& k);
  // Capacity hint. Callers pass only sizes they computed themselves, never a count read
  // from untrusted bytes.
  void Reserve(size_t n) { entries_.reserve(n); }

  const std::vector<std::pair<ArrayKey, Value>>& entries() const { return entries_; }

  int64_t next_index() const { return next_index_; }

 private:
  using Index = std::unordered_map<ArrayKey, size_t, ArrayKeyHash>;

  // Position of `k` in entries_, or entries_.size() when absent.
  size_t Position(const ArrayKey& k) const;
  // Pushes an entry whose key is known to be absent, keeping packed_/index_ current.
  void PushNew(const ArrayKey& k, Value v);
  // Rebuilds index_ when a non-packed array is past kScanLimit, else drops it.
  void Reindex();

  std::vector<std::pair<ArrayKey, Value>> entries_;
  Index index_;  // Empty unless !packed_ && size() > kScanLimit.
  int64_t next_index_ = 0;
  bool packed_ = true;
};

// One component per request in a control-flow group. Components are never themselves
// multivalues; arrays inside components may not contain multivalues either (projection
// flattens them). Arrays *outside* (a univalue array whose cells are multivalues) are legal.
struct MultiValue {
  std::vector<Value> items;
};

enum class ValueType : uint8_t {
  kNull = 0,
  kBool,
  kInt,
  kFloat,
  kString,
  kArray,
  kMulti,
};

// Strings, arrays and multivalues share their storage between copies. The shared storage
// is written in place only while this Value is its sole owner (use_count() == 1); a
// shared one is copied first. Long-lived holders — chunk constants, frozen audit stores,
// cached query results — keep a reference of their own, so their storage is never written.
class Value {
 public:
  using ArrayPtr = std::shared_ptr<ArrayObject>;
  using MultiPtr = std::shared_ptr<MultiValue>;

  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Rep(b)); }
  static Value Int(int64_t i) { return Value(Rep(i)); }
  static Value Float(double d) { return Value(Rep(d)); }
  static Value Str(std::string s) {
    return Value(Rep(std::make_shared<std::string>(std::move(s))));
  }
  static Value Array() { return Value(Rep(std::make_shared<ArrayObject>())); }
  static Value Array(ArrayPtr a) { return Value(Rep(std::move(a))); }
  static Value Multi(std::vector<Value> items) {
    auto m = std::make_shared<MultiValue>();
    m->items = std::move(items);
    return Value(Rep(std::move(m)));
  }

  ValueType type() const { return static_cast<ValueType>(rep_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_float() const { return type() == ValueType::kFloat; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_array() const { return type() == ValueType::kArray; }
  bool is_multi() const { return type() == ValueType::kMulti; }
  bool is_numeric() const { return is_int() || is_float(); }

  bool as_bool() const { return std::get<bool>(rep_); }
  int64_t as_int() const { return std::get<int64_t>(rep_); }
  double as_float() const { return std::get<double>(rep_); }
  const std::string& as_string() const { return *std::get<StringPtr>(rep_); }
  // Copy-on-write append to a string value (is_string() must hold).
  void AppendString(std::string_view s);

  const ArrayObject& array() const { return *std::get<ArrayPtr>(rep_); }
  ArrayPtr array_ptr() const { return std::get<ArrayPtr>(rep_); }
  // Copy-on-write: returns a uniquely-owned ArrayObject for in-place mutation.
  ArrayObject& MutableArray();

  const MultiValue& multi() const { return *std::get<MultiPtr>(rep_); }
  // Copy-on-write: returns a uniquely-owned MultiValue for in-place mutation.
  MultiValue& MutableMulti();

  // PHP-style truthiness: null/false/0/0.0/""/"0"/empty-array are false.
  bool Truthy() const;

  // Rendering for echo / string concatenation. Arrays render as "Array" plus a canonical
  // dump of entries so that responses depend on array contents (unlike PHP's bare "Array",
  // which would hide differences that matter for auditing tests).
  std::string ToString() const;
  // Appends the ToString() rendering to *out without building a temporary.
  void AppendTo(std::string* out) const;

  // Numeric coercions; non-coercible inputs yield 0 like PHP's (int)/(float) casts on
  // non-numeric strings.
  int64_t ToInt() const;
  double ToFloat() const;

  // Deep structural equality (used for multivalue collapse and the == operator).
  static bool DeepEquals(const Value& a, const Value& b);

  // Canonical byte-string form used in operation-log reports.
  std::string Serialize() const;
  void SerializeTo(std::string* out) const;

 private:
  using StringPtr = std::shared_ptr<std::string>;
  using Rep = std::variant<std::monostate, bool, int64_t, double, StringPtr, ArrayPtr, MultiPtr>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

// Parses a canonical serialization. Reports are untrusted, so this never aborts on
// malformed input; it returns an error Result instead.
Result<Value> DeserializeValue(std::string_view bytes);
// The interpreter's hot Result: its error side costs one pointer.
static_assert(sizeof(Result<Value>) <= sizeof(std::optional<Value>) + sizeof(Status));

// True if the value is a multivalue or an array (transitively) containing one.
bool ContainsMulti(const Value& v);

// Projects component j out of a (possibly multi) value: multivalues pick items[j]; arrays
// are walked recursively (sharing is preserved when nothing changes). Scalars pass through.
Value ProjectComponent(const Value& v, size_t j);

// Builds a multivalue from per-request components, collapsing to a scalar when all
// components are deeply equal (the "on-demand" part of SIMD-on-demand, §4.3).
Value MakeMultiCollapsed(std::vector<Value> items);

// The same collapse for a multivalue mutated in place: replaces *v by its first component
// when all components are deeply equal. Non-multivalues are left unchanged.
void CollapseIfUniform(Value* v);

}  // namespace orochi

#endif  // SRC_LANG_VALUE_H_
