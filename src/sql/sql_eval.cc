#include "src/sql/sql_eval.h"

#include <algorithm>

namespace orochi {

int ColumnIndex(const std::vector<ColumnDef>& schema, const std::string& name) {
  for (size_t i = 0; i < schema.size(); i++) {
    if (schema[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

SqlValue CoerceToColumnType(const SqlValue& v, SqlType type) {
  if (v.is_null()) {
    return v;
  }
  switch (type) {
    case SqlType::kInt:
      return SqlValue::Int(v.ToInt());
    case SqlType::kFloat:
      return SqlValue::Float(v.ToFloat());
    case SqlType::kText:
      return SqlValue::Text(v.ToText());
  }
  return v;
}

Result<SqlValue> EvalSqlExpr(const SqlExpr& e, const std::vector<ColumnDef>& schema,
                             const SqlRow& row) {
  switch (e.kind) {
    case SqlExprKind::kLiteral:
      return e.literal;
    case SqlExprKind::kColumn: {
      int idx = ColumnIndex(schema, e.column);
      if (idx < 0) {
        return Result<SqlValue>::Error("unknown column '" + e.column + "'");
      }
      return row[static_cast<size_t>(idx)];
    }
    case SqlExprKind::kAnd: {
      Result<SqlValue> a = EvalSqlExpr(*e.a, schema, row);
      if (!a.ok()) {
        return a;
      }
      if (a.value().ToInt() == 0) {
        return SqlValue::Int(0);
      }
      Result<SqlValue> b = EvalSqlExpr(*e.b, schema, row);
      if (!b.ok()) {
        return b;
      }
      return SqlValue::Int(b.value().ToInt() != 0 ? 1 : 0);
    }
    case SqlExprKind::kOr: {
      Result<SqlValue> a = EvalSqlExpr(*e.a, schema, row);
      if (!a.ok()) {
        return a;
      }
      if (a.value().ToInt() != 0) {
        return SqlValue::Int(1);
      }
      Result<SqlValue> b = EvalSqlExpr(*e.b, schema, row);
      if (!b.ok()) {
        return b;
      }
      return SqlValue::Int(b.value().ToInt() != 0 ? 1 : 0);
    }
    case SqlExprKind::kNot: {
      Result<SqlValue> a = EvalSqlExpr(*e.a, schema, row);
      if (!a.ok()) {
        return a;
      }
      return SqlValue::Int(a.value().ToInt() == 0 ? 1 : 0);
    }
    case SqlExprKind::kBinary: {
      Result<SqlValue> ra = EvalSqlExpr(*e.a, schema, row);
      if (!ra.ok()) {
        return ra;
      }
      Result<SqlValue> rb = EvalSqlExpr(*e.b, schema, row);
      if (!rb.ok()) {
        return rb;
      }
      const SqlValue& a = ra.value();
      const SqlValue& b = rb.value();
      switch (e.op) {
        case SqlBinOp::kAdd:
        case SqlBinOp::kSub:
        case SqlBinOp::kMul:
        case SqlBinOp::kDiv: {
          if (a.is_int() && b.is_int() && e.op != SqlBinOp::kDiv) {
            int64_t x = a.as_int();
            int64_t y = b.as_int();
            switch (e.op) {
              case SqlBinOp::kAdd: return SqlValue::Int(x + y);
              case SqlBinOp::kSub: return SqlValue::Int(x - y);
              default: return SqlValue::Int(x * y);
            }
          }
          double x = a.ToFloat();
          double y = b.ToFloat();
          switch (e.op) {
            case SqlBinOp::kAdd: return SqlValue::Float(x + y);
            case SqlBinOp::kSub: return SqlValue::Float(x - y);
            case SqlBinOp::kMul: return SqlValue::Float(x * y);
            default:
              if (y == 0.0) {
                return Result<SqlValue>::Error("division by zero");
              }
              return SqlValue::Float(x / y);
          }
        }
        case SqlBinOp::kEq: case SqlBinOp::kNe: case SqlBinOp::kLt:
        case SqlBinOp::kLe: case SqlBinOp::kGt: case SqlBinOp::kGe: {
          // Text/number comparisons coerce text numerically when compared with a number.
          int cmp;
          if (a.is_text() && b.is_numeric()) {
            double x = a.ToFloat();
            double y = b.ToFloat();
            cmp = x < y ? -1 : x > y ? 1 : 0;
          } else if (a.is_numeric() && b.is_text()) {
            double x = a.ToFloat();
            double y = b.ToFloat();
            cmp = x < y ? -1 : x > y ? 1 : 0;
          } else {
            cmp = CompareSqlValues(a, b);
          }
          bool res;
          switch (e.op) {
            case SqlBinOp::kEq: res = cmp == 0; break;
            case SqlBinOp::kNe: res = cmp != 0; break;
            case SqlBinOp::kLt: res = cmp < 0; break;
            case SqlBinOp::kLe: res = cmp <= 0; break;
            case SqlBinOp::kGt: res = cmp > 0; break;
            default: res = cmp >= 0; break;
          }
          return SqlValue::Int(res ? 1 : 0);
        }
      }
      return Result<SqlValue>::Error("internal: bad sql binop");
    }
  }
  return Result<SqlValue>::Error("internal: bad sql expr");
}

Result<bool> EvalWhere(const SqlExpr* where, const std::vector<ColumnDef>& schema,
                       const SqlRow& row) {
  if (where == nullptr) {
    return true;
  }
  Result<SqlValue> v = EvalSqlExpr(*where, schema, row);
  if (!v.ok()) {
    return v.status();
  }
  return v.value().ToInt() != 0;
}

Result<StmtResult> RunSelectPipeline(const SqlStatement& stmt,
                                     const std::vector<ColumnDef>& schema,
                                     std::vector<const SqlRow*> rows) {
  // ORDER BY applies before projection (columns may not be projected).
  if (!stmt.order_by.empty()) {
    std::vector<int> order_idx;
    for (const OrderBy& ob : stmt.order_by) {
      int idx = ColumnIndex(schema, ob.column);
      if (idx < 0) {
        return Result<StmtResult>::Error("unknown ORDER BY column '" + ob.column + "'");
      }
      order_idx.push_back(idx);
    }
    std::stable_sort(rows.begin(), rows.end(), [&](const SqlRow* a, const SqlRow* b) {
      for (size_t i = 0; i < order_idx.size(); i++) {
        size_t idx = static_cast<size_t>(order_idx[i]);
        int cmp = CompareSqlValues((*a)[idx], (*b)[idx]);
        if (cmp != 0) {
          return stmt.order_by[i].descending ? cmp > 0 : cmp < 0;
        }
      }
      return false;
    });
  }

  bool has_agg = false;
  bool has_plain = false;
  for (const SelectItem& item : stmt.select_items) {
    if (item.agg != SqlAgg::kNone) {
      has_agg = true;
    } else {
      has_plain = true;
    }
  }
  if (has_agg && has_plain) {
    return Result<StmtResult>::Error("cannot mix aggregates and plain columns");
  }

  StmtResult out;
  out.is_rows = true;

  if (has_agg) {
    SqlRow agg_row;
    for (const SelectItem& item : stmt.select_items) {
      std::string name;
      SqlValue v;
      if (item.agg == SqlAgg::kCountStar) {
        name = "count(*)";
        v = SqlValue::Int(static_cast<int64_t>(rows.size()));
      } else {
        int idx = ColumnIndex(schema, item.column);
        if (idx < 0) {
          return Result<StmtResult>::Error("unknown column '" + item.column + "'");
        }
        size_t col = static_cast<size_t>(idx);
        switch (item.agg) {
          case SqlAgg::kCount: {
            int64_t n = 0;
            for (const SqlRow* r : rows) {
              if (!(*r)[col].is_null()) {
                n++;
              }
            }
            name = "count(" + item.column + ")";
            v = SqlValue::Int(n);
            break;
          }
          case SqlAgg::kSum: {
            bool any_float = false;
            int64_t isum = 0;
            double fsum = 0.0;
            bool any = false;
            for (const SqlRow* r : rows) {
              const SqlValue& cell = (*r)[col];
              if (cell.is_null()) {
                continue;
              }
              any = true;
              if (cell.is_float()) {
                any_float = true;
              }
              isum += cell.ToInt();
              fsum += cell.ToFloat();
            }
            name = "sum(" + item.column + ")";
            v = !any ? SqlValue::Null()
                     : (any_float ? SqlValue::Float(fsum) : SqlValue::Int(isum));
            break;
          }
          case SqlAgg::kMax:
          case SqlAgg::kMin: {
            const SqlValue* best = nullptr;
            for (const SqlRow* r : rows) {
              const SqlValue& cell = (*r)[col];
              if (cell.is_null()) {
                continue;
              }
              if (best == nullptr ||
                  (item.agg == SqlAgg::kMax ? CompareSqlValues(cell, *best) > 0
                                            : CompareSqlValues(cell, *best) < 0)) {
                best = &cell;
              }
            }
            name = (item.agg == SqlAgg::kMax ? "max(" : "min(") + item.column + ")";
            v = best == nullptr ? SqlValue::Null() : *best;
            break;
          }
          default:
            return Result<StmtResult>::Error("internal: bad aggregate");
        }
      }
      out.rows.columns.push_back(item.alias.empty() ? name : item.alias);
      agg_row.push_back(std::move(v));
    }
    out.rows.rows.push_back(std::move(agg_row));
    // LIMIT on an aggregate row set still applies (LIMIT 0 yields nothing).
    if (stmt.limit >= 0 && static_cast<int64_t>(out.rows.rows.size()) > stmt.limit) {
      out.rows.rows.resize(static_cast<size_t>(stmt.limit));
    }
    return out;
  }

  // Plain projection.
  std::vector<int> proj;
  for (const SelectItem& item : stmt.select_items) {
    if (item.star) {
      for (size_t i = 0; i < schema.size(); i++) {
        proj.push_back(static_cast<int>(i));
        out.rows.columns.push_back(schema[i].name);
      }
    } else {
      int idx = ColumnIndex(schema, item.column);
      if (idx < 0) {
        return Result<StmtResult>::Error("unknown column '" + item.column + "'");
      }
      proj.push_back(idx);
      out.rows.columns.push_back(item.alias.empty() ? item.column : item.alias);
    }
  }

  size_t max_rows = stmt.limit >= 0 ? static_cast<size_t>(stmt.limit) : rows.size();
  for (const SqlRow* r : rows) {
    if (out.rows.rows.size() >= max_rows) {
      break;
    }
    SqlRow projected;
    projected.reserve(proj.size());
    for (int idx : proj) {
      projected.push_back((*r)[static_cast<size_t>(idx)]);
    }
    out.rows.rows.push_back(std::move(projected));
  }
  return out;
}

}  // namespace orochi
