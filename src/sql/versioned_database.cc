#include "src/sql/versioned_database.h"

#include <algorithm>
#include <optional>

#include "src/sql/sql_eval.h"
#include "src/sql/sql_parser.h"

namespace orochi {

namespace {
constexpr uint64_t kOpenEnd = UINT64_MAX;

// The INT column and int literal of `col = k` or `k = col` when that is the leftmost
// conjunct of `where`; nullopt for every other shape (those scan).
std::optional<std::pair<size_t, double>> EqualityProbe(const SqlExpr* where,
                                                       const std::vector<ColumnDef>& schema) {
  if (where == nullptr) {
    return std::nullopt;
  }
  while (where->kind == SqlExprKind::kAnd) {
    where = where->a.get();
  }
  if (where->kind != SqlExprKind::kBinary || where->op != SqlBinOp::kEq) {
    return std::nullopt;
  }
  const SqlExpr* col = where->a.get();
  const SqlExpr* lit = where->b.get();
  if (col->kind != SqlExprKind::kColumn) {
    std::swap(col, lit);
  }
  if (col->kind != SqlExprKind::kColumn || lit->kind != SqlExprKind::kLiteral ||
      !lit->literal.is_int()) {
    return std::nullopt;
  }
  int idx = ColumnIndex(schema, col->column);
  if (idx < 0 || schema[static_cast<size_t>(idx)].type != SqlType::kInt) {
    return std::nullopt;
  }
  return std::make_pair(static_cast<size_t>(idx), lit->literal.ToFloat());
}

// Pairs of (row id, row) in row-id order — the server Database's row order. Versions are
// appended, so a visible set is out of order only after an UPDATE; sort only then.
std::vector<const SqlRow*> InRowIdOrder(std::vector<std::pair<uint64_t, const SqlRow*>> rows) {
  auto by_id = [](const auto& x, const auto& y) { return x.first < y.first; };
  if (!std::is_sorted(rows.begin(), rows.end(), by_id)) {
    std::sort(rows.begin(), rows.end(), by_id);
  }
  std::vector<const SqlRow*> out;
  out.reserve(rows.size());
  for (const auto& [id, row] : rows) {
    out.push_back(row);
  }
  return out;
}
}  // namespace

void VersionedDatabase::NoteModification(VTable* t, uint64_t ts) {
  if (t->mod_timestamps.empty() || t->mod_timestamps.back() != ts) {
    t->mod_timestamps.push_back(ts);
  }
}

void VersionedDatabase::AppendVersion(VTable* t, VRow row) {
  uint32_t pos = static_cast<uint32_t>(t->rows.size());
  for (size_t c = 0; c < t->schema.size(); c++) {
    // INSERT and UPDATE coerce cells to the column type, so an INT cell is an int or NULL;
    // NULL never equals an int literal and is not indexed.
    if (t->schema[c].type == SqlType::kInt && !row.values[c].is_null()) {
      t->eq_index[c][row.values[c].ToFloat()].push_back(pos);
    }
  }
  t->rows.push_back(std::move(row));
}

template <typename Fn>
Status VersionedDatabase::ForEachMatch(const VTable& t, const SqlExpr* where, uint64_t ts,
                                       Fn&& fn) {
  static const std::vector<uint32_t> kNoCandidates;
  const std::vector<uint32_t>* candidates = nullptr;
  if (std::optional<std::pair<size_t, double>> probe = EqualityProbe(where, t.schema)) {
    const EqIndex& index = t.eq_index[probe->first];
    auto hit = index.find(probe->second);
    candidates = hit == index.end() ? &kNoCandidates : &hit->second;
  }
  size_t n = candidates != nullptr ? candidates->size() : t.rows.size();
  for (size_t i = 0; i < n; i++) {
    size_t pos = candidates != nullptr ? (*candidates)[i] : i;
    const VRow& vrow = t.rows[pos];
    if (!(vrow.start_ts <= ts && ts < vrow.end_ts)) {
      continue;
    }
    Result<bool> match = EvalWhere(where, t.schema, vrow.values);
    if (!match.ok()) {
      return match.status();
    }
    if (match.value()) {
      if (Status st = fn(pos); !st.ok()) {
        return st;
      }
    }
  }
  return Status::Ok();
}

Result<StmtResult> VersionedDatabase::ApplyWriteText(const std::string& sql, uint64_t ts) {
  Result<SqlStatement> stmt = ParseSql(sql);
  if (!stmt.ok()) {
    return stmt.status();
  }
  return ApplyWrite(stmt.value(), ts);
}

Status VersionedDatabase::LoadInitial(const Database& snapshot) {
  if (frozen_) {
    return Status::Error("LoadInitial: versioned database is frozen");
  }
  for (const std::string& name : snapshot.TableNames()) {
    if (tables_.count(name) > 0) {
      return Status::Error("table '" + name + "' already exists");
    }
    VTable t;
    t.schema = *snapshot.Schema(name);
    t.eq_index.resize(t.schema.size());
    NoteModification(&t, 0);
    const std::vector<SqlRow>& rows = *snapshot.Rows(name);
    t.rows.reserve(rows.size());
    for (const SqlRow& row : rows) {
      if (row.size() != t.schema.size()) {
        return Status::Error("table '" + name + "': row width " + std::to_string(row.size()) +
                             " does not match schema width " +
                             std::to_string(t.schema.size()));
      }
      SqlRow values;
      values.reserve(row.size());
      for (size_t c = 0; c < row.size(); c++) {
        values.push_back(CoerceToColumnType(row[c], t.schema[c].type));
      }
      AppendVersion(&t, {0, kOpenEnd, t.next_row_id++, std::move(values)});
    }
    tables_.emplace(name, std::move(t));
  }
  return Status::Ok();
}

Result<StmtResult> VersionedDatabase::ApplyWrite(const SqlStatement& stmt, uint64_t ts,
                                                 bool commit) {
  if (frozen_) {
    return Result<StmtResult>::Error("ApplyWrite: versioned database is frozen");
  }
  switch (stmt.kind) {
    case SqlStmtKind::kCreateTable: {
      if (tables_.count(stmt.table) > 0) {
        return Result<StmtResult>::Error("table '" + stmt.table + "' already exists");
      }
      if (commit) {
        VTable t;
        t.schema = stmt.columns;
        t.eq_index.resize(t.schema.size());
        NoteModification(&t, ts);
        tables_.emplace(stmt.table, std::move(t));
      }
      StmtResult r;
      r.is_rows = false;
      return r;
    }
    case SqlStmtKind::kInsert: {
      auto it = tables_.find(stmt.table);
      if (it == tables_.end()) {
        return Result<StmtResult>::Error("no such table '" + stmt.table + "'");
      }
      VTable& t = it->second;
      std::vector<int> targets;
      for (const std::string& col : stmt.insert_columns) {
        int idx = ColumnIndex(t.schema, col);
        if (idx < 0) {
          return Result<StmtResult>::Error("unknown column '" + col + "'");
        }
        targets.push_back(idx);
      }
      static const SqlRow kEmptyRow;
      int64_t inserted = 0;
      for (const auto& exprs : stmt.insert_rows) {
        SqlRow row(t.schema.size(), SqlValue::Null());
        for (size_t i = 0; i < exprs.size(); i++) {
          Result<SqlValue> v = EvalSqlExpr(*exprs[i], t.schema, kEmptyRow);
          if (!v.ok()) {
            return v.status();
          }
          size_t idx = static_cast<size_t>(targets[i]);
          row[idx] = CoerceToColumnType(v.value(), t.schema[idx].type);
        }
        if (commit) {
          AppendVersion(&t, {ts, kOpenEnd, t.next_row_id++, std::move(row)});
        }
        inserted++;
      }
      if (commit && inserted > 0) {
        NoteModification(&t, ts);
      }
      StmtResult r;
      r.is_rows = false;
      r.affected = inserted;
      return r;
    }
    case SqlStmtKind::kUpdate: {
      auto it = tables_.find(stmt.table);
      if (it == tables_.end()) {
        return Result<StmtResult>::Error("no such table '" + stmt.table + "'");
      }
      VTable& t = it->second;
      std::vector<std::pair<int, const SqlExpr*>> sets;
      for (const auto& [col, expr] : stmt.set_items) {
        int idx = ColumnIndex(t.schema, col);
        if (idx < 0) {
          return Result<StmtResult>::Error("unknown column '" + col + "'");
        }
        sets.emplace_back(idx, expr.get());
      }
      // Stage: find visible matching rows, compute successors, then commit.
      std::vector<std::pair<size_t, SqlRow>> staged;
      Status st = ForEachMatch(t, stmt.where.get(), ts, [&](size_t ri) {
        const SqlRow& values = t.rows[ri].values;
        SqlRow updated = values;
        for (const auto& [idx, expr] : sets) {
          Result<SqlValue> v = EvalSqlExpr(*expr, t.schema, values);
          if (!v.ok()) {
            return v.status();
          }
          size_t i = static_cast<size_t>(idx);
          updated[i] = CoerceToColumnType(v.value(), t.schema[i].type);
        }
        staged.emplace_back(ri, std::move(updated));
        return Status::Ok();
      });
      if (!st.ok()) {
        return st;
      }
      if (commit) {
        for (auto& [ri, updated] : staged) {
          t.rows[ri].end_ts = ts;
          AppendVersion(&t, {ts, kOpenEnd, t.rows[ri].row_id, std::move(updated)});
        }
        if (!staged.empty()) {
          NoteModification(&t, ts);
        }
      }
      StmtResult r;
      r.is_rows = false;
      r.affected = static_cast<int64_t>(staged.size());
      return r;
    }
    case SqlStmtKind::kDelete: {
      auto it = tables_.find(stmt.table);
      if (it == tables_.end()) {
        return Result<StmtResult>::Error("no such table '" + stmt.table + "'");
      }
      VTable& t = it->second;
      std::vector<size_t> doomed;
      Status st = ForEachMatch(t, stmt.where.get(), ts, [&](size_t ri) {
        doomed.push_back(ri);
        return Status::Ok();
      });
      if (!st.ok()) {
        return st;
      }
      if (commit) {
        for (size_t ri : doomed) {
          t.rows[ri].end_ts = ts;
        }
        if (!doomed.empty()) {
          NoteModification(&t, ts);
        }
      }
      StmtResult r;
      r.is_rows = false;
      r.affected = static_cast<int64_t>(doomed.size());
      return r;
    }
    case SqlStmtKind::kSelect:
      return Result<StmtResult>::Error("ApplyWrite: SELECT is not a write");
  }
  return Result<StmtResult>::Error("internal: bad statement kind");
}

Result<StmtResult> VersionedDatabase::SelectText(const std::string& sql, uint64_t ts) const {
  Result<SqlStatement> stmt = ParseSql(sql);
  if (!stmt.ok()) {
    return stmt.status();
  }
  return Select(stmt.value(), ts);
}

Result<StmtResult> VersionedDatabase::Select(const SqlStatement& stmt, uint64_t ts) const {
  if (stmt.kind != SqlStmtKind::kSelect) {
    return Result<StmtResult>::Error("Select: not a SELECT statement");
  }
  auto it = tables_.find(stmt.table);
  if (it == tables_.end()) {
    return Result<StmtResult>::Error("no such table '" + stmt.table + "'");
  }
  const VTable& t = it->second;
  std::vector<std::pair<uint64_t, const SqlRow*>> filtered;
  Status st = ForEachMatch(t, stmt.where.get(), ts, [&](size_t pos) {
    filtered.emplace_back(t.rows[pos].row_id, &t.rows[pos].values);
    return Status::Ok();
  });
  if (!st.ok()) {
    return st;
  }
  return RunSelectPipeline(stmt, t.schema, InRowIdOrder(std::move(filtered)));
}

bool VersionedDatabase::TableModifiedBetween(const std::string& table, uint64_t from_ts,
                                             uint64_t to_ts) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    // Unknown tables are conservatively "modified" so dedup never fabricates results.
    return true;
  }
  const std::vector<uint64_t>& mods = it->second.mod_timestamps;
  // First modification timestamp strictly greater than from_ts.
  auto lo = std::upper_bound(mods.begin(), mods.end(), from_ts);
  return lo != mods.end() && *lo <= to_ts;
}

Database VersionedDatabase::LatestState() const {
  Database db;
  for (const auto& [name, t] : tables_) {
    std::vector<std::pair<uint64_t, const SqlRow*>> current;
    for (const VRow& vrow : t.rows) {
      if (vrow.end_ts == kOpenEnd) {
        current.emplace_back(vrow.row_id, &vrow.values);
      }
    }
    std::vector<SqlRow> rows;
    for (const SqlRow* row : InRowIdOrder(std::move(current))) {
      rows.push_back(*row);
    }
    // Every row was built to the schema's width, so the load cannot fail.
    Status st = db.LoadTable(name, t.schema, std::move(rows));
    (void)st;
  }
  return db;
}

size_t VersionedDatabase::VersionedRowCount(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second.rows.size();
}

}  // namespace orochi
