// Conversions between SQL results and wscript values, and the canonical result shapes the
// db_query / db_txn builtins return. Used identically by the online server and the
// audit-time re-executor so both sides see the same program-visible values.
#ifndef SRC_OBJECTS_DB_ADAPTER_H_
#define SRC_OBJECTS_DB_ADAPTER_H_

#include <vector>

#include "src/lang/value.h"
#include "src/sql/database.h"
#include "src/sql/sql_value.h"

namespace orochi {

Value SqlValueToValue(const SqlValue& v);

// SELECT -> array of rows (row = array column => value); writes -> affected count.
Value StmtResultToValue(const StmtResult& r);

// db_query: result value of a successful single statement; a failed statement yields null.
Value DbQueryFailureValue();

// db_txn: [committed, [per-statement results...]].
Value DbTxnResultToValue(bool committed, const std::vector<StmtResult>& results);
// The same shape from per-statement values already converted by StmtResultToValue.
Value DbTxnResultToValue(bool committed, std::vector<Value> results);

}  // namespace orochi

#endif  // SRC_OBJECTS_DB_ADAPTER_H_
