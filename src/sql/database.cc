#include "src/sql/database.h"

#include <algorithm>

#include "src/sql/sql_eval.h"
#include "src/sql/sql_parser.h"

namespace orochi {

Result<StmtResult> Database::ExecuteText(const std::string& sql) {
  Result<SqlStatement> stmt = ParseSql(sql);
  if (!stmt.ok()) {
    return stmt.status();
  }
  return Execute(stmt.value());
}

Result<StmtResult> Database::Execute(const SqlStatement& stmt) {
  switch (stmt.kind) {
    case SqlStmtKind::kCreateTable: {
      if (tables_.count(stmt.table) > 0) {
        return Result<StmtResult>::Error("table '" + stmt.table + "' already exists");
      }
      Table t;
      t.schema = stmt.columns;
      tables_.emplace(stmt.table, std::move(t));
      StmtResult r;
      r.is_rows = false;
      r.affected = 0;
      return r;
    }
    case SqlStmtKind::kInsert: {
      auto it = tables_.find(stmt.table);
      if (it == tables_.end()) {
        return Result<StmtResult>::Error("no such table '" + stmt.table + "'");
      }
      Table& t = it->second;
      // Resolve the insert column list once.
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
        t.rows.push_back(std::move(row));
        inserted++;
      }
      StmtResult r;
      r.is_rows = false;
      r.affected = inserted;
      return r;
    }
    case SqlStmtKind::kSelect: {
      auto it = tables_.find(stmt.table);
      if (it == tables_.end()) {
        return Result<StmtResult>::Error("no such table '" + stmt.table + "'");
      }
      const Table& t = it->second;
      std::vector<const SqlRow*> filtered;
      for (const SqlRow& row : t.rows) {
        Result<bool> keep = EvalWhere(stmt.where.get(), t.schema, row);
        if (!keep.ok()) {
          return keep.status();
        }
        if (keep.value()) {
          filtered.push_back(&row);
        }
      }
      return RunSelectPipeline(stmt, t.schema, std::move(filtered));
    }
    case SqlStmtKind::kUpdate: {
      auto it = tables_.find(stmt.table);
      if (it == tables_.end()) {
        return Result<StmtResult>::Error("no such table '" + stmt.table + "'");
      }
      Table& t = it->second;
      std::vector<std::pair<int, const SqlExpr*>> sets;
      for (const auto& [col, expr] : stmt.set_items) {
        int idx = ColumnIndex(t.schema, col);
        if (idx < 0) {
          return Result<StmtResult>::Error("unknown column '" + col + "'");
        }
        sets.emplace_back(idx, expr.get());
      }
      // Stage all updates before committing any, so an evaluation error leaves the table
      // untouched (statement atomicity). SET expressions see the pre-update row.
      std::vector<std::pair<size_t, SqlRow>> staged;
      for (size_t ri = 0; ri < t.rows.size(); ri++) {
        const SqlRow& row = t.rows[ri];
        Result<bool> match = EvalWhere(stmt.where.get(), t.schema, row);
        if (!match.ok()) {
          return match.status();
        }
        if (!match.value()) {
          continue;
        }
        SqlRow updated = row;
        for (const auto& [idx, expr] : sets) {
          Result<SqlValue> v = EvalSqlExpr(*expr, t.schema, row);
          if (!v.ok()) {
            return v.status();
          }
          size_t i = static_cast<size_t>(idx);
          updated[i] = CoerceToColumnType(v.value(), t.schema[i].type);
        }
        staged.emplace_back(ri, std::move(updated));
      }
      int64_t affected = static_cast<int64_t>(staged.size());
      for (auto& [ri, updated] : staged) {
        t.rows[ri] = std::move(updated);
      }
      StmtResult r;
      r.is_rows = false;
      r.affected = affected;
      return r;
    }
    case SqlStmtKind::kDelete: {
      auto it = tables_.find(stmt.table);
      if (it == tables_.end()) {
        return Result<StmtResult>::Error("no such table '" + stmt.table + "'");
      }
      Table& t = it->second;
      // Evaluate all matches before mutating so an evaluation error leaves the table
      // untouched (statement atomicity).
      std::vector<bool> doomed(t.rows.size());
      int64_t affected = 0;
      for (size_t i = 0; i < t.rows.size(); i++) {
        Result<bool> match = EvalWhere(stmt.where.get(), t.schema, t.rows[i]);
        if (!match.ok()) {
          return match.status();
        }
        doomed[i] = match.value();
        if (doomed[i]) {
          affected++;
        }
      }
      size_t w = 0;
      for (size_t i = 0; i < t.rows.size(); i++) {
        if (!doomed[i]) {
          if (w != i) {
            t.rows[w] = std::move(t.rows[i]);
          }
          w++;
        }
      }
      t.rows.resize(w);
      StmtResult r;
      r.is_rows = false;
      r.affected = affected;
      return r;
    }
  }
  return Result<StmtResult>::Error("internal: bad statement kind");
}

Database::TxnResult Database::ExecuteTransaction(const std::vector<std::string>& stmts) {
  TxnResult out;
  // Parse everything first; collect touched tables for the undo snapshot.
  std::vector<SqlStatement> parsed;
  for (const std::string& sql : stmts) {
    Result<SqlStatement> stmt = ParseSql(sql);
    if (!stmt.ok()) {
      out.error = stmt.error();
      return out;
    }
    parsed.push_back(std::move(stmt).value());
  }
  std::map<std::string, Table> snapshot;
  std::vector<std::string> created;
  for (const SqlStatement& stmt : parsed) {
    if (stmt.kind == SqlStmtKind::kSelect) {
      continue;
    }
    if (stmt.kind == SqlStmtKind::kCreateTable) {
      created.push_back(stmt.table);
      continue;
    }
    auto it = tables_.find(stmt.table);
    if (it != tables_.end() && snapshot.count(stmt.table) == 0) {
      snapshot.emplace(stmt.table, it->second);
    }
  }

  for (const SqlStatement& stmt : parsed) {
    Result<StmtResult> r = Execute(stmt);
    if (!r.ok()) {
      // Roll back: restore snapshots, drop tables created inside the transaction.
      for (auto& [name, table] : snapshot) {
        tables_[name] = std::move(table);
      }
      for (const std::string& name : created) {
        tables_.erase(name);
      }
      out.committed = false;
      out.results.clear();
      out.error = r.error();
      return out;
    }
    out.results.push_back(std::move(r).value());
  }
  out.committed = true;
  return out;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  for (const auto& [name, t] : tables_) {
    (void)t;
    names.push_back(name);
  }
  return names;
}

size_t Database::RowCount(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second.rows.size();
}

const std::vector<ColumnDef>* Database::Schema(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : &it->second.schema;
}

const std::vector<SqlRow>* Database::Rows(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : &it->second.rows;
}

Status Database::LoadTable(const std::string& name, std::vector<ColumnDef> schema,
                           std::vector<SqlRow> rows) {
  if (tables_.count(name) > 0) {
    return Status::Error("table '" + name + "' already exists");
  }
  for (const SqlRow& row : rows) {
    if (row.size() != schema.size()) {
      return Status::Error("table '" + name + "': row width " + std::to_string(row.size()) +
                           " does not match schema width " + std::to_string(schema.size()));
    }
  }
  Table t;
  t.schema = std::move(schema);
  t.rows = std::move(rows);
  tables_.emplace(name, std::move(t));
  return Status::Ok();
}

size_t Database::ApproximateBytes() const {
  size_t bytes = 0;
  for (const auto& [name, t] : tables_) {
    bytes += name.size() + 64;
    for (const SqlRow& row : t.rows) {
      bytes += 16 * row.size();
      for (const SqlValue& v : row) {
        if (v.is_text()) {
          bytes += v.as_text().size();
        }
      }
    }
  }
  return bytes;
}

}  // namespace orochi
