#include "src/objects/object_model.h"

namespace orochi {

const char* ObjectKindName(ObjectKind k) {
  switch (k) {
    case ObjectKind::kRegister: return "register";
    case ObjectKind::kKv: return "kv";
    case ObjectKind::kDb: return "db";
  }
  return "?";
}

std::string MakeRegisterWriteContents(const Value& value) { return value.Serialize(); }

void AppendRegisterWriteContents(std::string* out, const Value& value) {
  value.SerializeTo(out);
}

void AppendKvSetContents(std::string* out, const std::string& key, const Value& value) {
  // Emits exactly what serializing the two-entry array [key, value] produces, without
  // materializing the ArrayObject: A:2:{I:0;S:<len>:<key>;I:1;<value>}.
  out->append("A:2:{I:0;S:");
  out->append(std::to_string(key.size()));
  out->append(":");
  out->append(key);
  out->append(";I:1;");
  value.SerializeTo(out);
  out->append("}");
}

std::string MakeKvSetContents(const std::string& key, const Value& value) {
  std::string out;
  AppendKvSetContents(&out, key, value);
  return out;
}

std::string MakeDbContents(const std::vector<std::string>& sql, bool is_txn, bool success) {
  Value root = Value::Array();
  ArrayObject& arr = root.MutableArray();
  Value stmts = Value::Array();
  ArrayObject& stmt_arr = stmts.MutableArray();
  for (const std::string& s : sql) {
    stmt_arr.Append(Value::Str(s));
  }
  arr.Append(std::move(stmts));
  arr.Append(Value::Bool(is_txn));
  arr.Append(Value::Bool(success));
  return root.Serialize();
}

Result<Value> ParseRegisterWriteContents(const std::string& contents) {
  return DeserializeValue(contents);
}

Result<KvSetContents> ParseKvSetContents(const std::string& contents) {
  Result<Value> v = DeserializeValue(contents);
  if (!v.ok()) {
    return v.status();
  }
  const Value& root = v.value();
  if (!root.is_array() || root.array().size() != 2) {
    return Result<KvSetContents>::Error("kv-set contents: expected [key, value]");
  }
  const Value* key = root.array().Find(ArrayKey(int64_t{0}));
  const Value* val = root.array().Find(ArrayKey(int64_t{1}));
  if (key == nullptr || val == nullptr || !key->is_string()) {
    return Result<KvSetContents>::Error("kv-set contents: malformed");
  }
  KvSetContents out;
  out.key = key->as_string();
  out.value = *val;
  return out;
}

Result<DbContents> ParseDbContents(const std::string& contents) {
  Result<Value> v = DeserializeValue(contents);
  if (!v.ok()) {
    return v.status();
  }
  const Value& root = v.value();
  if (!root.is_array() || root.array().size() != 3) {
    return Result<DbContents>::Error("db contents: expected [stmts, is_txn, success]");
  }
  const Value* stmts = root.array().Find(ArrayKey(int64_t{0}));
  const Value* is_txn = root.array().Find(ArrayKey(int64_t{1}));
  const Value* success = root.array().Find(ArrayKey(int64_t{2}));
  if (stmts == nullptr || is_txn == nullptr || success == nullptr || !stmts->is_array() ||
      !is_txn->is_bool() || !success->is_bool()) {
    return Result<DbContents>::Error("db contents: malformed");
  }
  DbContents out;
  for (const auto& [k, s] : stmts->array().entries()) {
    (void)k;
    if (!s.is_string()) {
      return Result<DbContents>::Error("db contents: statement is not a string");
    }
    out.sql.push_back(s.as_string());
  }
  if (out.sql.empty()) {
    return Result<DbContents>::Error("db contents: no statements");
  }
  out.is_txn = is_txn->as_bool();
  out.success = success->as_bool();
  return out;
}

}  // namespace orochi
