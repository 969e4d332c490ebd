#include "src/lang/value.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/hash.h"

namespace orochi {

namespace {

// True if s is a canonical decimal integer ("0", "42", "-7"): at most 19 digits, no
// leading zeros or plus, within int64. Like PHP, "-0" is not canonical (it stays a string
// key), while "-9223372036854775808" is.
bool IsCanonicalInt(std::string_view s, int64_t* out) {
  const size_t sign = !s.empty() && s[0] == '-' ? 1 : 0;
  const size_t digits = s.size() - sign;
  if (digits == 0 || digits > 19) {
    return false;
  }
  if (s[sign] == '0' && s.size() > 1) {
    return false;  // Leading zero, or "-0": not canonical.
  }
  int64_t v = 0;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = v;
  return true;
}

std::string FloatToString(double d) {
  if (std::isnan(d)) {
    return "NAN";
  }
  if (std::isinf(d)) {
    return d > 0 ? "INF" : "-INF";
  }
  // PHP prints integral floats without a decimal point.
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.14g", d);
  return buf;
}

}  // namespace

ArrayKey::ArrayKey(std::string k) {
  int64_t v = 0;
  if (IsCanonicalInt(k, &v)) {
    is_int_ = true;
    int_key_ = v;
  } else {
    is_int_ = false;
    int_key_ = 0;
    str_key_ = std::move(k);
  }
}

size_t ArrayKey::Hash() const {
  if (is_int_) {
    return static_cast<size_t>(Mix64(static_cast<uint64_t>(int_key_)));
  }
  return static_cast<size_t>(FnvHash(str_key_));
}

std::string ArrayKey::ToString() const {
  if (is_int_) {
    return std::to_string(int_key_);
  }
  return str_key_;
}

size_t ArrayObject::Position(const ArrayKey& k) const {
  const size_t n = entries_.size();
  if (packed_) {
    if (k.is_int() && k.int_key() >= 0 && static_cast<uint64_t>(k.int_key()) < n) {
      return static_cast<size_t>(k.int_key());
    }
    return n;
  }
  if (n > kScanLimit) {
    auto it = index_.find(k);
    return it == index_.end() ? n : it->second;
  }
  for (size_t i = 0; i < n; i++) {
    if (entries_[i].first == k) {
      return i;
    }
  }
  return n;
}

const Value* ArrayObject::Find(const ArrayKey& k) const {
  size_t pos = Position(k);
  return pos < entries_.size() ? &entries_[pos].second : nullptr;
}

void ArrayObject::Set(const ArrayKey& k, Value v) {
  size_t pos = Position(k);
  if (pos < entries_.size()) {
    entries_[pos].second = std::move(v);
    return;
  }
  PushNew(k, std::move(v));
}

void ArrayObject::PushNew(const ArrayKey& k, Value v) {
  const size_t pos = entries_.size();
  entries_.emplace_back(k, std::move(v));
  if (k.is_int() && k.int_key() >= next_index_) {
    // Saturates rather than overflowing at INT64_MAX (see Append).
    next_index_ = k.int_key() == INT64_MAX ? INT64_MAX : k.int_key() + 1;
  }
  if (packed_) {
    if (k.is_int() && k.int_key() == static_cast<int64_t>(pos)) {
      return;
    }
    packed_ = false;
    Reindex();
  } else if (pos == kScanLimit) {
    Reindex();
  } else if (pos > kScanLimit) {
    index_.emplace(k, pos);
  }
}

void ArrayObject::Append(Value v) {
  if (next_index_ == INT64_MAX) {
    // Only a key of INT64_MAX saturates next_index_, and that key may be present.
    Set(ArrayKey(next_index_), std::move(v));
    return;
  }
  // next_index_ exceeds every int key, so the key is new: no probe.
  PushNew(ArrayKey(next_index_), std::move(v));
}

void ArrayObject::Erase(const ArrayKey& k) {
  size_t pos = Position(k);
  if (pos == entries_.size()) {
    return;
  }
  entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(pos));
  if (packed_) {
    if (pos == entries_.size()) {
      return;  // Dropped the last key: the rest are still 0..size()-1.
    }
    packed_ = false;
  }
  Reindex();
}

void ArrayObject::Reindex() {
  if (packed_ || entries_.size() <= kScanLimit) {
    index_ = Index();  // Frees the buckets too, so copies stay cheap.
    return;
  }
  index_.clear();
  index_.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); i++) {
    index_.emplace(entries_[i].first, i);
  }
}

ArrayObject& Value::MutableArray() {
  auto& ptr = std::get<ArrayPtr>(rep_);
  if (ptr.use_count() > 1) {
    ptr = std::make_shared<ArrayObject>(*ptr);
  }
  return *ptr;
}

MultiValue& Value::MutableMulti() {
  auto& ptr = std::get<MultiPtr>(rep_);
  if (ptr.use_count() > 1) {
    ptr = std::make_shared<MultiValue>(*ptr);
  }
  return *ptr;
}

void Value::AppendString(std::string_view s) {
  auto& ptr = std::get<StringPtr>(rep_);
  if (ptr.use_count() > 1) {
    auto fresh = std::make_shared<std::string>();
    fresh->reserve(ptr->size() + s.size());
    fresh->append(*ptr).append(s);
    ptr = std::move(fresh);
    return;
  }
  ptr->append(s);
}

bool Value::Truthy() const {
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kBool:
      return as_bool();
    case ValueType::kInt:
      return as_int() != 0;
    case ValueType::kFloat:
      return as_float() != 0.0;
    case ValueType::kString: {
      const std::string& s = as_string();
      return !s.empty() && s != "0";
    }
    case ValueType::kArray:
      return array().size() > 0;
    case ValueType::kMulti:
      // Callers must project multivalues before asking for a single truthiness.
      return false;
  }
  return false;
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Value::AppendTo(std::string* out) const {
  switch (type()) {
    case ValueType::kNull:
      return;
    case ValueType::kBool:
      if (as_bool()) {
        out->push_back('1');
      }
      return;
    case ValueType::kInt:
      out->append(std::to_string(as_int()));
      return;
    case ValueType::kFloat:
      out->append(FloatToString(as_float()));
      return;
    case ValueType::kString:
      out->append(as_string());
      return;
    case ValueType::kArray: {
      out->append("Array(");
      bool first = true;
      for (const auto& [k, v] : array().entries()) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        out->append(k.ToString());
        out->append("=>");
        v.AppendTo(out);
      }
      out->push_back(')');
      return;
    }
    case ValueType::kMulti:
      out->append("<multi>");
      return;
  }
}

int64_t Value::ToInt() const {
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return as_bool() ? 1 : 0;
    case ValueType::kInt:
      return as_int();
    case ValueType::kFloat:
      return static_cast<int64_t>(as_float());
    case ValueType::kString: {
      errno = 0;
      const char* p = as_string().c_str();
      char* end = nullptr;
      long long v = std::strtoll(p, &end, 10);
      if (end == p || errno != 0) {
        return 0;
      }
      return v;
    }
    case ValueType::kArray:
      return array().size() > 0 ? 1 : 0;
    case ValueType::kMulti:
      return 0;
  }
  return 0;
}

double Value::ToFloat() const {
  switch (type()) {
    case ValueType::kNull:
      return 0.0;
    case ValueType::kBool:
      return as_bool() ? 1.0 : 0.0;
    case ValueType::kInt:
      return static_cast<double>(as_int());
    case ValueType::kFloat:
      return as_float();
    case ValueType::kString: {
      const char* p = as_string().c_str();
      char* end = nullptr;
      double v = std::strtod(p, &end);
      if (end == p) {
        return 0.0;
      }
      return v;
    }
    case ValueType::kArray:
      return array().size() > 0 ? 1.0 : 0.0;
    case ValueType::kMulti:
      return 0.0;
  }
  return 0.0;
}

bool Value::DeepEquals(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    // int/float cross-type numeric equality (PHP ==) is intentionally NOT applied here:
    // collapse must be representation-exact so re-execution stays deterministic.
    return false;
  }
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return a.as_bool() == b.as_bool();
    case ValueType::kInt:
      return a.as_int() == b.as_int();
    case ValueType::kFloat:
      return a.as_float() == b.as_float();
    case ValueType::kString:
      return &a.as_string() == &b.as_string() || a.as_string() == b.as_string();
    case ValueType::kArray: {
      if (&a.array() == &b.array()) {
        return true;
      }
      const ArrayObject& x = a.array();
      const ArrayObject& y = b.array();
      if (x.size() != y.size()) {
        return false;
      }
      for (size_t i = 0; i < x.size(); i++) {
        const auto& [kx, vx] = x.entries()[i];
        const auto& [ky, vy] = y.entries()[i];
        if (!(kx == ky) || !DeepEquals(vx, vy)) {
          return false;
        }
      }
      return true;
    }
    case ValueType::kMulti: {
      const auto& x = a.multi().items;
      const auto& y = b.multi().items;
      if (x.size() != y.size()) {
        return false;
      }
      for (size_t i = 0; i < x.size(); i++) {
        if (!DeepEquals(x[i], y[i])) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

void Value::SerializeTo(std::string* out) const {
  switch (type()) {
    case ValueType::kNull:
      out->append("N;");
      return;
    case ValueType::kBool:
      out->append(as_bool() ? "B:1;" : "B:0;");
      return;
    case ValueType::kInt:
      out->append("I:");
      out->append(std::to_string(as_int()));
      out->append(";");
      return;
    case ValueType::kFloat: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "F:%.17g;", as_float());
      out->append(buf);
      return;
    }
    case ValueType::kString: {
      const std::string& s = as_string();
      out->append("S:");
      out->append(std::to_string(s.size()));
      out->append(":");
      out->append(s);
      out->append(";");
      return;
    }
    case ValueType::kArray: {
      const ArrayObject& a = array();
      out->append("A:");
      out->append(std::to_string(a.size()));
      out->append(":{");
      for (const auto& [k, v] : a.entries()) {
        if (k.is_int()) {
          out->append("I:");
          out->append(std::to_string(k.int_key()));
          out->append(";");
        } else {
          out->append("S:");
          out->append(std::to_string(k.str_key().size()));
          out->append(":");
          out->append(k.str_key());
          out->append(";");
        }
        v.SerializeTo(out);
      }
      out->append("}");
      return;
    }
    case ValueType::kMulti:
      // Multivalues are per-group artifacts of the verifier; operands in reports are
      // always per-request projections.
      out->append("M!;");
      return;
  }
}

std::string Value::Serialize() const {
  std::string out;
  SerializeTo(&out);
  return out;
}

namespace {

// Recursive-descent parser over the canonical serialization. `pos` advances past the
// consumed bytes. Depth-limited: reports are untrusted.
constexpr int kMaxDeserializeDepth = 64;

bool ParseValue(std::string_view s, size_t* pos, int depth, Value* out, std::string* err);

bool ParseIntUntil(std::string_view s, size_t* pos, char stop, int64_t* out) {
  size_t p = *pos;
  size_t start = p;
  while (p < s.size() && s[p] != stop) {
    p++;
  }
  if (p >= s.size() || p == start || p - start > 20) {
    return false;
  }
  std::string digits(s.substr(start, p - start));
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(digits.c_str(), &end, 10);
  if (errno != 0 || end != digits.c_str() + digits.size()) {
    return false;
  }
  *out = v;
  *pos = p + 1;  // Consume the stop character.
  return true;
}

bool ParseValue(std::string_view s, size_t* pos, int depth, Value* out, std::string* err) {
  if (depth > kMaxDeserializeDepth) {
    *err = "nesting too deep";
    return false;
  }
  if (*pos >= s.size()) {
    *err = "truncated";
    return false;
  }
  char tag = s[*pos];
  (*pos)++;
  switch (tag) {
    case 'N':
      if (*pos >= s.size() || s[*pos] != ';') {
        *err = "bad null";
        return false;
      }
      (*pos)++;
      *out = Value::Null();
      return true;
    case 'B': {
      if (*pos + 2 >= s.size() + 1 || s[*pos] != ':') {
        *err = "bad bool";
        return false;
      }
      (*pos)++;
      if (*pos + 1 >= s.size() || (s[*pos] != '0' && s[*pos] != '1') || s[*pos + 1] != ';') {
        *err = "bad bool";
        return false;
      }
      *out = Value::Bool(s[*pos] == '1');
      *pos += 2;
      return true;
    }
    case 'I': {
      if (*pos >= s.size() || s[*pos] != ':') {
        *err = "bad int";
        return false;
      }
      (*pos)++;
      int64_t v = 0;
      if (!ParseIntUntil(s, pos, ';', &v)) {
        *err = "bad int";
        return false;
      }
      *out = Value::Int(v);
      return true;
    }
    case 'F': {
      if (*pos >= s.size() || s[*pos] != ':') {
        *err = "bad float";
        return false;
      }
      (*pos)++;
      size_t start = *pos;
      while (*pos < s.size() && s[*pos] != ';') {
        (*pos)++;
      }
      if (*pos >= s.size() || *pos == start) {
        *err = "bad float";
        return false;
      }
      std::string digits(s.substr(start, *pos - start));
      char* end = nullptr;
      double v = std::strtod(digits.c_str(), &end);
      if (end != digits.c_str() + digits.size()) {
        *err = "bad float";
        return false;
      }
      (*pos)++;
      *out = Value::Float(v);
      return true;
    }
    case 'S': {
      if (*pos >= s.size() || s[*pos] != ':') {
        *err = "bad string";
        return false;
      }
      (*pos)++;
      int64_t len = 0;
      if (!ParseIntUntil(s, pos, ':', &len) || len < 0 ||
          static_cast<size_t>(len) > s.size() - *pos) {
        *err = "bad string length";
        return false;
      }
      std::string body(s.substr(*pos, static_cast<size_t>(len)));
      *pos += static_cast<size_t>(len);
      if (*pos >= s.size() || s[*pos] != ';') {
        *err = "bad string terminator";
        return false;
      }
      (*pos)++;
      *out = Value::Str(std::move(body));
      return true;
    }
    case 'A': {
      if (*pos >= s.size() || s[*pos] != ':') {
        *err = "bad array";
        return false;
      }
      (*pos)++;
      int64_t count = 0;
      if (!ParseIntUntil(s, pos, ':', &count) || count < 0) {
        *err = "bad array count";
        return false;
      }
      if (*pos >= s.size() || s[*pos] != '{') {
        *err = "bad array open";
        return false;
      }
      (*pos)++;
      Value arr = Value::Array();
      ArrayObject& obj = arr.MutableArray();
      for (int64_t i = 0; i < count; i++) {
        Value key;
        if (!ParseValue(s, pos, depth + 1, &key, err)) {
          return false;
        }
        ArrayKey ak;
        if (key.is_int()) {
          ak = ArrayKey(key.as_int());
        } else if (key.is_string()) {
          ak = ArrayKey(key.as_string());
        } else {
          *err = "bad array key type";
          return false;
        }
        Value val;
        if (!ParseValue(s, pos, depth + 1, &val, err)) {
          return false;
        }
        obj.Set(ak, std::move(val));
      }
      if (*pos >= s.size() || s[*pos] != '}') {
        *err = "bad array close";
        return false;
      }
      (*pos)++;
      *out = std::move(arr);
      return true;
    }
    default:
      *err = "unknown tag";
      return false;
  }
}

}  // namespace

Result<Value> DeserializeValue(std::string_view bytes) {
  size_t pos = 0;
  Value v;
  std::string err;
  if (!ParseValue(bytes, &pos, 0, &v, &err)) {
    return Result<Value>::Error("deserialize: " + err);
  }
  if (pos != bytes.size()) {
    return Result<Value>::Error("deserialize: trailing bytes");
  }
  return v;
}

bool ContainsMulti(const Value& v) {
  if (v.is_multi()) {
    return true;
  }
  if (v.is_array()) {
    for (const auto& [k, cell] : v.array().entries()) {
      (void)k;
      if (ContainsMulti(cell)) {
        return true;
      }
    }
  }
  return false;
}

Value ProjectComponent(const Value& v, size_t j) {
  if (v.is_multi()) {
    const auto& items = v.multi().items;
    return j < items.size() ? items[j] : Value::Null();
  }
  if (v.is_array()) {
    if (!ContainsMulti(v)) {
      return v;  // Sharing preserved: no multivalue inside.
    }
    Value out = Value::Array();
    ArrayObject& obj = out.MutableArray();
    for (const auto& [k, cell] : v.array().entries()) {
      obj.Set(k, ProjectComponent(cell, j));
    }
    return out;
  }
  return v;
}

namespace {

bool AllDeepEqual(const std::vector<Value>& items) {
  for (size_t i = 1; i < items.size(); i++) {
    if (!Value::DeepEquals(items[0], items[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

Value MakeMultiCollapsed(std::vector<Value> items) {
  if (items.empty()) {
    return Value::Null();
  }
  if (AllDeepEqual(items)) {
    return std::move(items[0]);
  }
  return Value::Multi(std::move(items));
}

void CollapseIfUniform(Value* v) {
  if (!v->is_multi() || !AllDeepEqual(v->multi().items)) {
    return;
  }
  Value first = v->multi().items[0];
  *v = std::move(first);
}

}  // namespace orochi
