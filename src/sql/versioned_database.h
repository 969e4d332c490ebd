// Audit-time versioned database (paper §4.5, §A.7).
//
// Rows carry [start_ts, end_ts) validity intervals (the Warp schema). During the redo pass
// the verifier replays every logged transaction, stamping query q of transaction s with
// ts = s * kMaxQueriesPerTxn + q; a re-executed SELECT at timestamp ts then sees exactly the
// state the online execution saw. Per-table modification timestamps support read-query
// deduplication: two lexically identical SELECTs at versions v1 < v2 can share a result when
// no touched table was modified in (v1, v2].
//
// Row order matches the server's Database: every version carries a stable row id that an
// UPDATE successor inherits, and SELECTs and LatestState see rows in row-id order, which is
// insertion order with updates in place.
//
// Equality probes: each INT column keeps an index from cell value (keyed as the double that
// CompareSqlValues compares) to the ascending positions of every version holding it. When
// the leftmost conjunct of a WHERE is `INT column = int literal` (either operand order),
// SELECT, UPDATE and DELETE visit only the probed versions and still evaluate the full WHERE
// on each. AND evaluates left to right and stops at the first false operand, so every
// skipped version is one whose WHERE is false without error: rows, order, affected counts
// and errors equal a full scan's. Every other WHERE shape scans.
#ifndef SRC_SQL_VERSIONED_DATABASE_H_
#define SRC_SQL_VERSIONED_DATABASE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/sql/database.h"
#include "src/sql/sql_ast.h"
#include "src/sql/sql_value.h"

namespace orochi {

class VersionedDatabase {
 public:
  // MAXQ from the paper's implementation (§A.7): query q of transaction s gets
  // ts = s * kMaxQueriesPerTxn + q. q is 1-based; s is the 1-based log sequence number.
  static constexpr uint64_t kMaxQueriesPerTxn = 10000;

  static uint64_t MakeTimestamp(uint64_t seqnum, uint64_t query_index) {
    return seqnum * kMaxQueriesPerTxn + query_index;
  }

  // Applies one write statement (CREATE/INSERT/UPDATE/DELETE) at timestamp ts. Timestamps
  // must be applied in non-decreasing order (the redo pass walks the log in order). With
  // commit = false the statement is fully evaluated (staging included) but nothing
  // mutates — used to validate the executor's claimed-failure ops (§4.6).
  Result<StmtResult> ApplyWrite(const SqlStatement& stmt, uint64_t ts, bool commit = true);
  Result<StmtResult> ApplyWriteText(const std::string& sql, uint64_t ts);

  // Loads every table of `snapshot` at timestamp 0, the epoch's initial state. Rows are
  // coerced to their column types and appended directly; the row ids, equality indexes
  // and modification stamps equal those of a CREATE plus one multi-row INSERT per table
  // at ts 0, without building either statement. Fails on a table that already exists.
  Status LoadInitial(const Database& snapshot);

  // Marks the end of the redo pass: any later ApplyWrite fails. A frozen database is
  // immutable, so Select / TableModifiedBetween are lock-free thread-safe snapshot reads
  // — the property the parallel audit relies on.
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  // Runs a SELECT as of timestamp ts (rows with start_ts <= ts < end_ts are visible).
  Result<StmtResult> Select(const SqlStatement& stmt, uint64_t ts) const;
  Result<StmtResult> SelectText(const std::string& sql, uint64_t ts) const;

  // True when `table` was modified at any version in (from_ts, to_ts].
  bool TableModifiedBetween(const std::string& table, uint64_t from_ts, uint64_t to_ts) const;

  // Materializes the latest state (as of +infinity) into a plain database — the
  // "permanent" copy the verifier keeps after the audit (§5.1), discarding versions.
  Database LatestState() const;

  size_t VersionedRowCount(const std::string& table) const;

 private:
  struct VRow {
    uint64_t start_ts;
    uint64_t end_ts;  // UINT64_MAX while current.
    uint64_t row_id;  // Stable across versions: an UPDATE successor inherits it.
    SqlRow values;
  };

  // One INT column's equality index: cell value -> ascending positions in `rows`.
  using EqIndex = std::unordered_map<double, std::vector<uint32_t>>;

  struct VTable {
    std::vector<ColumnDef> schema;
    std::vector<VRow> rows;
    std::vector<EqIndex> eq_index;  // Per column; stays empty for non-INT columns.
    uint64_t next_row_id = 0;
    std::vector<uint64_t> mod_timestamps;  // Sorted (appends are monotone).
  };

  void NoteModification(VTable* t, uint64_t ts);
  // Appends a version and indexes its INT cells.
  static void AppendVersion(VTable* t, VRow row);
  // Calls fn(position) in ascending position order for every version visible at ts whose
  // WHERE holds, probing the equality index when the WHERE allows it; stops at the first
  // error, from the WHERE or from fn.
  template <typename Fn>
  static Status ForEachMatch(const VTable& t, const SqlExpr* where, uint64_t ts, Fn&& fn);

  std::map<std::string, VTable> tables_;
  bool frozen_ = false;
};

}  // namespace orochi

#endif  // SRC_SQL_VERSIONED_DATABASE_H_
