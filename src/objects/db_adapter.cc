#include "src/objects/db_adapter.h"

#include <string>
#include <utility>
#include <vector>

namespace orochi {

Value SqlValueToValue(const SqlValue& v) {
  if (v.is_null()) {
    return Value::Null();
  }
  if (v.is_int()) {
    return Value::Int(v.as_int());
  }
  if (v.is_float()) {
    return Value::Float(v.as_float());
  }
  return Value::Str(v.as_text());
}

Value StmtResultToValue(const StmtResult& r) {
  if (!r.is_rows) {
    return Value::Int(r.affected);
  }
  // Column keys are built once per result, not once per cell.
  std::vector<ArrayKey> keys;
  keys.reserve(r.rows.columns.size());
  for (const std::string& column : r.rows.columns) {
    keys.emplace_back(column);
  }
  Value rows = Value::Array();
  ArrayObject& rows_arr = rows.MutableArray();
  rows_arr.Reserve(r.rows.rows.size());
  for (const SqlRow& row : r.rows.rows) {
    Value row_val = Value::Array();
    ArrayObject& row_arr = row_val.MutableArray();
    row_arr.Reserve(row.size());
    for (size_t i = 0; i < row.size(); i++) {
      row_arr.Set(keys[i], SqlValueToValue(row[i]));
    }
    rows_arr.Append(std::move(row_val));
  }
  return rows;
}

Value DbQueryFailureValue() { return Value::Null(); }

Value DbTxnResultToValue(bool committed, const std::vector<StmtResult>& results) {
  std::vector<Value> values;
  values.reserve(results.size());
  for (const StmtResult& r : results) {
    values.push_back(StmtResultToValue(r));
  }
  return DbTxnResultToValue(committed, std::move(values));
}

Value DbTxnResultToValue(bool committed, std::vector<Value> results) {
  Value out = Value::Array();
  ArrayObject& arr = out.MutableArray();
  arr.Append(Value::Bool(committed));
  Value result_list = Value::Array();
  ArrayObject& list_arr = result_list.MutableArray();
  for (Value& r : results) {
    list_arr.Append(std::move(r));
  }
  arr.Append(std::move(result_list));
  return out;
}

}  // namespace orochi
