// Versioned database tests: Warp-style interval visibility (§4.5), the redo-pass
// timestamp discipline, modification tracking for query dedup, final-state extraction, row
// order parity with the server's Database, and exactness of the equality index.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sql/sql_parser.h"
#include "src/sql/versioned_database.h"

namespace orochi {
namespace {

void MustApply(VersionedDatabase* db, const std::string& sql, uint64_t ts) {
  Result<StmtResult> r = db->ApplyWriteText(sql, ts);
  ASSERT_TRUE(r.ok()) << sql << ": " << (r.ok() ? "" : r.error());
}

int64_t CountAt(const VersionedDatabase& db, const std::string& table, uint64_t ts) {
  Result<StmtResult> r = db.SelectText("SELECT count(*) AS n FROM " + table, ts);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error());
  return r.ok() ? r.value().rows.rows[0][0].as_int() : -1;
}

TEST(VersionedDb, InsertVisibleOnlyFromItsTimestamp) {
  VersionedDatabase db;
  MustApply(&db, "CREATE TABLE t (a INT)", 10);
  MustApply(&db, "INSERT INTO t (a) VALUES (1)", 20);
  MustApply(&db, "INSERT INTO t (a) VALUES (2)", 30);
  EXPECT_EQ(CountAt(db, "t", 15), 0);
  EXPECT_EQ(CountAt(db, "t", 20), 1);
  EXPECT_EQ(CountAt(db, "t", 25), 1);
  EXPECT_EQ(CountAt(db, "t", 30), 2);
  EXPECT_EQ(CountAt(db, "t", 1000), 2);
}

TEST(VersionedDb, UpdateCreatesNewVersionOldStaysVisible) {
  VersionedDatabase db;
  MustApply(&db, "CREATE TABLE t (a INT, b TEXT)", 1);
  MustApply(&db, "INSERT INTO t (a, b) VALUES (1, 'old')", 10);
  MustApply(&db, "UPDATE t SET b = 'new' WHERE a = 1", 20);
  Result<StmtResult> before = db.SelectText("SELECT b FROM t", 15);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().rows.rows[0][0].as_text(), "old");
  Result<StmtResult> after = db.SelectText("SELECT b FROM t", 20);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().rows.rows[0][0].as_text(), "new");
  // Two versions exist physically.
  EXPECT_EQ(db.VersionedRowCount("t"), 2u);
}

TEST(VersionedDb, DeleteClosesInterval) {
  VersionedDatabase db;
  MustApply(&db, "CREATE TABLE t (a INT)", 1);
  MustApply(&db, "INSERT INTO t (a) VALUES (7)", 10);
  MustApply(&db, "DELETE FROM t WHERE a = 7", 20);
  EXPECT_EQ(CountAt(db, "t", 19), 1);
  EXPECT_EQ(CountAt(db, "t", 20), 0);
  EXPECT_EQ(CountAt(db, "t", 999), 0);
}

TEST(VersionedDb, ReadAtTsSeesWritesAtSameTs) {
  // The redo stamps query q of txn s at ts = s*MAXQ + q; a read at ts must see the write
  // at ts' <= ts (start_ts <= ts inclusive).
  VersionedDatabase db;
  MustApply(&db, "CREATE TABLE t (a INT)", VersionedDatabase::MakeTimestamp(1, 1));
  MustApply(&db, "INSERT INTO t (a) VALUES (1)", VersionedDatabase::MakeTimestamp(2, 1));
  // Within transaction 2, query 2 (a read) sees query 1's insert.
  EXPECT_EQ(CountAt(db, "t", VersionedDatabase::MakeTimestamp(2, 2)), 1);
  // But a read in transaction 1 (earlier) does not.
  EXPECT_EQ(CountAt(db, "t", VersionedDatabase::MakeTimestamp(1, 2)), 0);
}

TEST(VersionedDb, TableModifiedBetweenTracksWindows) {
  VersionedDatabase db;
  MustApply(&db, "CREATE TABLE t (a INT)", 5);
  MustApply(&db, "INSERT INTO t (a) VALUES (1)", 10);
  MustApply(&db, "UPDATE t SET a = 2", 30);
  // (from, to] semantics.
  EXPECT_FALSE(db.TableModifiedBetween("t", 10, 29));
  EXPECT_TRUE(db.TableModifiedBetween("t", 10, 30));
  EXPECT_TRUE(db.TableModifiedBetween("t", 9, 10));
  EXPECT_FALSE(db.TableModifiedBetween("t", 30, 1000));
  EXPECT_FALSE(db.TableModifiedBetween("t", 30, 30));
  // Unknown tables are conservatively modified.
  EXPECT_TRUE(db.TableModifiedBetween("ghost", 0, 1));
}

TEST(VersionedDb, NoopWriteDoesNotMarkModification) {
  VersionedDatabase db;
  MustApply(&db, "CREATE TABLE t (a INT)", 5);
  MustApply(&db, "INSERT INTO t (a) VALUES (1)", 10);
  MustApply(&db, "UPDATE t SET a = 9 WHERE a = 777", 20);  // Matches nothing.
  EXPECT_FALSE(db.TableModifiedBetween("t", 10, 25));
}

TEST(VersionedDb, DryRunEvaluatesWithoutMutating) {
  VersionedDatabase db;
  MustApply(&db, "CREATE TABLE t (a INT)", 5);
  MustApply(&db, "INSERT INTO t (a) VALUES (1)", 10);
  Result<SqlStatement> stmt = ParseSql("UPDATE t SET a = a + 1");
  ASSERT_TRUE(stmt.ok());
  Result<StmtResult> dry = db.ApplyWrite(stmt.value(), 20, /*commit=*/false);
  ASSERT_TRUE(dry.ok());
  EXPECT_EQ(dry.value().affected, 1);
  // Nothing changed.
  Result<StmtResult> r = db.SelectText("SELECT a FROM t", 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows.rows[0][0].as_int(), 1);
  EXPECT_FALSE(db.TableModifiedBetween("t", 10, 100));
}

TEST(VersionedDb, DryRunStillReportsErrors) {
  VersionedDatabase db;
  MustApply(&db, "CREATE TABLE t (a INT)", 5);
  Result<SqlStatement> stmt = ParseSql("UPDATE t SET ghost = 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(db.ApplyWrite(stmt.value(), 10, /*commit=*/false).ok());
}

TEST(VersionedDb, LatestStateDropsHistory) {
  VersionedDatabase db;
  MustApply(&db, "CREATE TABLE t (a INT)", 1);
  MustApply(&db, "INSERT INTO t (a) VALUES (1)", 10);
  MustApply(&db, "UPDATE t SET a = 2", 20);
  MustApply(&db, "INSERT INTO t (a) VALUES (3)", 30);
  MustApply(&db, "DELETE FROM t WHERE a = 3", 40);
  Database latest = db.LatestState();
  EXPECT_EQ(latest.RowCount("t"), 1u);
  Result<StmtResult> r = latest.ExecuteText("SELECT a FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows.rows[0][0].as_int(), 2);
}

TEST(VersionedDb, SelectRejectsWrites) {
  VersionedDatabase db;
  MustApply(&db, "CREATE TABLE t (a INT)", 1);
  EXPECT_FALSE(db.SelectText("DELETE FROM t", 10).ok());
  Result<SqlStatement> sel = ParseSql("SELECT a FROM t");
  ASSERT_TRUE(sel.ok());
  EXPECT_FALSE(db.ApplyWrite(sel.value(), 10).ok());
}

TEST(VersionedDb, VersionedFootprintExceedsLatest) {
  VersionedDatabase db;
  MustApply(&db, "CREATE TABLE t (s TEXT)", 1);
  MustApply(&db, "INSERT INTO t (s) VALUES ('row')", 10);
  for (uint64_t ts = 20; ts < 120; ts += 10) {
    MustApply(&db, "UPDATE t SET s = 'row" + std::to_string(ts) + "'", ts);
  }
  // 1 live row, 11 versions: the "temp DB overhead" of Figure 8.
  EXPECT_EQ(db.LatestState().RowCount("t"), 1u);
  EXPECT_EQ(db.VersionedRowCount("t"), 11u);
}

// The server's Database updates rows in place; the versioned store appends successors.
// Both must still present rows in the same order, to SELECTs (with and without ORDER BY
// ties) after every write and in the extracted final state.
TEST(VersionedDb, RowOrderMatchesTheServerDatabase) {
  const std::vector<std::string> writes = {
      "CREATE TABLE t (id INT, v TEXT)",
      "INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b'), (3, 'c')",
      "UPDATE t SET v = 'a2' WHERE id = 1",
      "DELETE FROM t WHERE id = 2",
      "INSERT INTO t (id, v) VALUES (4, 'd')",
      "UPDATE t SET v = 'c2' WHERE id = 3",
      "UPDATE t SET id = 0 WHERE id = 1",
      "UPDATE t SET v = 'x'",
      "INSERT INTO t (id, v) VALUES (5, 'x')",
  };
  const std::vector<std::string> reads = {
      "SELECT id, v FROM t",
      "SELECT id FROM t WHERE v = 'x'",
      "SELECT id FROM t ORDER BY v",
      "SELECT * FROM t LIMIT 2",
      "SELECT id FROM t WHERE id = 3",
  };
  Database server;
  VersionedDatabase verifier;
  for (size_t i = 0; i < writes.size(); i++) {
    uint64_t ts = 10 * (i + 1);
    ASSERT_TRUE(server.ExecuteText(writes[i]).ok()) << writes[i];
    MustApply(&verifier, writes[i], ts);
    for (const std::string& read : reads) {
      Result<StmtResult> want = server.ExecuteText(read);
      Result<StmtResult> got = verifier.SelectText(read, ts);
      ASSERT_TRUE(want.ok() && got.ok()) << read;
      EXPECT_EQ(got.value().rows.rows, want.value().rows.rows)
          << read << " after " << writes[i];
    }
  }
  Database latest = verifier.LatestState();
  ASSERT_NE(latest.Rows("t"), nullptr);
  EXPECT_EQ(*latest.Rows("t"), *server.Rows("t"));
}

// --- Equality index exactness ---
//
// The oracle for every probed statement is the same statement with its WHERE rewritten as
// `1 = 1 AND (<where>)`: that leftmost conjunct is never a probe, so the oracle scans every
// version, while its truth value and errors per row are the original WHERE's.

const std::vector<std::string>& ProbeWheres() {
  static const std::vector<std::string> wheres = {
      "id = 3", "3 = id", "id = 99", "id = -1", "grp = 2", "2 = grp AND name = 'b'",
      "(id = 1 AND grp = 2) AND score > 0", "((grp = 1 AND id > 0) AND name = 'a') AND 1 = 1",
      "id = 2 AND (grp = 1 OR name = 'c')", "name = 'a' AND id = 1", "score > 0 AND grp = 1",
      "id = 1 OR id = 2", "NOT id = 1", "grp = 9007199254740993", "grp = 9007199254740992",
      "id = '3'", "'3' = id", "id = 3.0", "grp = 2.5", "name = 'c'", "score = 2",
      "grp = 1", "id = 2 AND ghost = 1", "id = 6 AND ghost = 1", "id = 99 AND ghost = 1",
      "id = 2 AND 1 / score > 0", "id = 3 AND 1 / score > 0", "ghost = 1"};
  return wheres;
}

// One table with INT, TEXT and FLOAT columns, NULL cells, two ints above 2^53 that are
// equal as doubles, and a history of inserts, in-place updates, key changes and deletes.
VersionedDatabase ProbeHistory() {
  VersionedDatabase db;
  MustApply(&db, "CREATE TABLE t (id INT, grp INT, name TEXT, score FLOAT)", 1);
  MustApply(&db,
            "INSERT INTO t (id, grp, name, score) VALUES (1, 1, 'a', 1.5), (2, 1, 'b', 0), "
            "(3, 2, 'c', 2), (4, 9007199254740992, 'd', 3)",
            10);
  MustApply(&db, "INSERT INTO t (id, name) VALUES (5, 'e')", 20);
  MustApply(&db, "INSERT INTO t (id, grp, name, score) VALUES (7, 9007199254740993, 'g', 1)",
            20);
  MustApply(&db, "UPDATE t SET grp = 2 WHERE id = 1", 30);
  MustApply(&db, "UPDATE t SET name = 'b' WHERE grp = 2", 40);
  MustApply(&db, "DELETE FROM t WHERE id = 4", 50);
  MustApply(&db, "INSERT INTO t (id, grp, name, score) VALUES (6, 1, 'f', 0)", 60);
  MustApply(&db, "UPDATE t SET id = 3 WHERE id = 5", 70);
  MustApply(&db, "UPDATE t SET score = 2.5 WHERE 3 = id AND grp = 2", 80);
  return db;
}

std::string Rewritten(const std::string& stmt_prefix, const std::string& where, bool oracle) {
  return stmt_prefix + " WHERE " + (oracle ? "1 = 1 AND (" + where + ")" : where);
}

void ExpectSameOutcome(const Result<StmtResult>& got, const Result<StmtResult>& want,
                       const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what << ": " << (got.ok() ? want.error() : got.error());
  if (!got.ok()) {
    EXPECT_EQ(got.error(), want.error()) << what;
    return;
  }
  EXPECT_EQ(got.value().affected, want.value().affected) << what;
  EXPECT_EQ(got.value().rows.columns, want.value().rows.columns) << what;
  EXPECT_EQ(got.value().rows.rows, want.value().rows.rows) << what;
}

Result<StmtResult> ApplyText(VersionedDatabase* db, const std::string& sql, uint64_t ts,
                             bool commit) {
  Result<SqlStatement> stmt = ParseSql(sql);
  EXPECT_TRUE(stmt.ok()) << sql;
  return stmt.ok() ? db->ApplyWrite(stmt.value(), ts, commit)
                   : Result<StmtResult>::Error(stmt.error());
}

const uint64_t kProbeTimestamps[] = {5, 10, 25, 35, 45, 55, 65, 75, 85, 1000};

void ExpectSelectsMatchScan(const VersionedDatabase& db, const std::string& when) {
  for (const std::string& where : ProbeWheres()) {
    for (uint64_t ts : kProbeTimestamps) {
      const std::string what = when + ": " + where + " @" + std::to_string(ts);
      ExpectSameOutcome(db.SelectText(Rewritten("SELECT * FROM t", where, false), ts),
                        db.SelectText(Rewritten("SELECT * FROM t", where, true), ts), what);
      ExpectSameOutcome(
          db.SelectText(Rewritten("SELECT count(*) FROM t", where, false), ts),
          db.SelectText(Rewritten("SELECT count(*) FROM t", where, true), ts), what);
    }
  }
}

TEST(VersionedDbIndex, SelectsMatchTheScanOracle) {
  ExpectSelectsMatchScan(ProbeHistory(), "history");
}

TEST(VersionedDbIndex, DryRunsMatchTheScanOracle) {
  VersionedDatabase db = ProbeHistory();
  const std::string writes[] = {"UPDATE t SET grp = grp + 1", "UPDATE t SET score = 1 / score",
                                "DELETE FROM t"};
  for (const std::string& write : writes) {
    for (const std::string& where : ProbeWheres()) {
      for (uint64_t ts : kProbeTimestamps) {
        ExpectSameOutcome(ApplyText(&db, Rewritten(write, where, false), ts, false),
                          ApplyText(&db, Rewritten(write, where, true), ts, false),
                          write + " dry: " + where + " @" + std::to_string(ts));
      }
    }
  }
  // Nothing mutated: the history still answers exactly as it did.
  VersionedDatabase fresh = ProbeHistory();
  for (uint64_t ts : kProbeTimestamps) {
    ExpectSameOutcome(db.SelectText("SELECT * FROM t", ts), fresh.SelectText("SELECT * FROM t", ts),
                      "after dry runs @" + std::to_string(ts));
  }
}

// Committed UPDATE and DELETE through the probe and through the scan must leave the same
// store, and the probe must keep matching the scan once successors re-key rows.
TEST(VersionedDbIndex, CommittedWritesMatchTheScanOracle) {
  const std::string writes[] = {"UPDATE t SET grp = grp + 1", "UPDATE t SET id = 2",
                                "UPDATE t SET score = 1 / score", "DELETE FROM t"};
  const uint64_t ts = 100;
  for (const std::string& write : writes) {
    for (const std::string& where : ProbeWheres()) {
      const std::string what = write + ": " + where;
      VersionedDatabase probed = ProbeHistory();
      VersionedDatabase scanned = ProbeHistory();
      ExpectSameOutcome(ApplyText(&probed, Rewritten(write, where, false), ts, true),
                        ApplyText(&scanned, Rewritten(write, where, true), ts, true), what);
      for (uint64_t at : {uint64_t{99}, ts, uint64_t{1000}}) {
        ExpectSameOutcome(probed.SelectText("SELECT * FROM t", at),
                          scanned.SelectText("SELECT * FROM t", at),
                          what + " then SELECT * @" + std::to_string(at));
      }
      EXPECT_EQ(*probed.LatestState().Rows("t"), *scanned.LatestState().Rows("t")) << what;
      EXPECT_EQ(probed.TableModifiedBetween("t", 99, ts),
                scanned.TableModifiedBetween("t", 99, ts))
          << what;
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }
  VersionedDatabase db = ProbeHistory();
  MustApply(&db, "UPDATE t SET grp = 9007199254740993, id = id + 10 WHERE grp = 1", 100);
  MustApply(&db, "UPDATE t SET grp = 1 WHERE id = 13", 110);
  ExpectSelectsMatchScan(db, "after re-keying updates");
}

// --- Initial snapshot bulk load ---

// The route LoadInitial replaces: CREATE each table, then one INSERT of literal rows, both
// at ts 0.
void LoadBySql(VersionedDatabase* db, const Database& snapshot) {
  for (const std::string& table : snapshot.TableNames()) {
    SqlStatement create;
    create.kind = SqlStmtKind::kCreateTable;
    create.table = table;
    create.columns = *snapshot.Schema(table);
    ASSERT_TRUE(db->ApplyWrite(create, 0).ok()) << table;
    const std::vector<SqlRow>& rows = *snapshot.Rows(table);
    if (rows.empty()) {
      continue;
    }
    SqlStatement insert;
    insert.kind = SqlStmtKind::kInsert;
    insert.table = table;
    for (const ColumnDef& c : create.columns) {
      insert.insert_columns.push_back(c.name);
    }
    for (const SqlRow& row : rows) {
      std::vector<SqlExprPtr> exprs;
      for (const SqlValue& v : row) {
        auto e = std::make_unique<SqlExpr>();
        e->kind = SqlExprKind::kLiteral;
        e->literal = v;
        exprs.push_back(std::move(e));
      }
      insert.insert_rows.push_back(std::move(exprs));
    }
    ASSERT_TRUE(db->ApplyWrite(insert, 0).ok()) << table;
  }
}

// A bulk-loaded snapshot is the store CREATE + INSERT at ts 0 build: the same latest
// state, the same probe and scan results before and after later writes (row ids order
// rows, the equality index finds coerced cells), and the same modification windows.
TEST(VersionedDb, LoadInitialEqualsCreateAndInsertAtTsZero) {
  Database snapshot;
  const std::vector<ColumnDef> schema = {{"id", SqlType::kInt},
                                         {"grp", SqlType::kInt},
                                         {"name", SqlType::kText},
                                         {"score", SqlType::kFloat}};
  // Cells a later coercion changes (text in INT columns, an int in a TEXT column), NULLs,
  // and two ints above 2^53 that are equal as doubles.
  std::vector<SqlRow> rows = {
      {SqlValue::Int(1), SqlValue::Int(1), SqlValue::Text("a"), SqlValue::Float(1.5)},
      {SqlValue::Int(2), SqlValue::Text("1"), SqlValue::Text("b"), SqlValue::Int(0)},
      {SqlValue::Text("3"), SqlValue::Int(2), SqlValue::Int(7), SqlValue::Float(2)},
      {SqlValue::Int(4), SqlValue::Int(9007199254740992), SqlValue::Text("d"),
       SqlValue::Null()},
      {SqlValue::Int(5), SqlValue::Null(), SqlValue::Text("e"), SqlValue::Null()},
      {SqlValue::Int(7), SqlValue::Int(9007199254740993), SqlValue::Text("g"),
       SqlValue::Float(1)},
  };
  ASSERT_TRUE(snapshot.LoadTable("t", schema, rows).ok());
  ASSERT_TRUE(snapshot.LoadTable("empty", {{"k", SqlType::kText}}, {}).ok());

  VersionedDatabase bulk;
  ASSERT_TRUE(bulk.LoadInitial(snapshot).ok());
  VersionedDatabase by_sql;
  LoadBySql(&by_sql, snapshot);

  auto expect_same = [&](const std::string& when) {
    Database a = bulk.LatestState();
    Database b = by_sql.LatestState();
    ASSERT_EQ(a.TableNames(), b.TableNames()) << when;
    for (const std::string& table : a.TableNames()) {
      EXPECT_EQ(*a.Rows(table), *b.Rows(table)) << when << ": " << table;
      EXPECT_EQ(bulk.VersionedRowCount(table), by_sql.VersionedRowCount(table)) << when;
    }
    for (const std::string& where : ProbeWheres()) {
      for (uint64_t ts : kProbeTimestamps) {
        const std::string sql = Rewritten("SELECT * FROM t", where, false);
        ExpectSameOutcome(bulk.SelectText(sql, ts), by_sql.SelectText(sql, ts),
                          when + ": " + where + " @" + std::to_string(ts));
      }
    }
    for (uint64_t from : {uint64_t{0}, uint64_t{5}, uint64_t{10}, uint64_t{25}}) {
      for (uint64_t to : {uint64_t{0}, uint64_t{5}, uint64_t{10}, uint64_t{30}}) {
        for (const std::string table : {"t", "empty", "ghost"}) {
          EXPECT_EQ(bulk.TableModifiedBetween(table, from, to),
                    by_sql.TableModifiedBetween(table, from, to))
              << when << ": " << table << " (" << from << ", " << to << "]";
        }
      }
    }
  };
  expect_same("loaded");
  for (const auto& [sql, ts] : std::vector<std::pair<std::string, uint64_t>>{
           {"UPDATE t SET grp = 2 WHERE id = 1", 10},
           {"INSERT INTO t (id, name) VALUES (6, 'f')", 20},
           {"DELETE FROM t WHERE grp = 1", 30},
           {"INSERT INTO empty (k) VALUES ('x')", 30}}) {
    MustApply(&bulk, sql, ts);
    MustApply(&by_sql, sql, ts);
  }
  expect_same("after writes");

  // A second load collides with the tables already there, as a second CREATE would.
  EXPECT_FALSE(bulk.LoadInitial(snapshot).ok());
}

}  // namespace
}  // namespace orochi
